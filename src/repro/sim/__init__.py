"""Evaluation layer: workload constants, cost model, and simulators."""

from repro.sim.costmodel import CostModel, HardwareConfig, RecoveryTimes
from repro.sim.endtoend import EndToEndResult, EndToEndSimulator
from repro.sim.fleet import (
    FleetFailure,
    FleetReport,
    FleetSimulator,
    JobStats,
)
from repro.sim.throughput import Timeline, TimelinePoint, ThroughputSimulator
from repro.sim.workloads import (
    BERT_128,
    VIT_128_32,
    WIDE_RESNET_50,
    WORKLOADS,
    Workload,
)

__all__ = [
    "CostModel",
    "HardwareConfig",
    "RecoveryTimes",
    "EndToEndSimulator",
    "EndToEndResult",
    "FleetFailure",
    "FleetReport",
    "FleetSimulator",
    "JobStats",
    "ThroughputSimulator",
    "Timeline",
    "TimelinePoint",
    "Workload",
    "WORKLOADS",
    "WIDE_RESNET_50",
    "VIT_128_32",
    "BERT_128",
]
