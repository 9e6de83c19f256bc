"""Simulated cluster substrate: machines, devices, storage, failures, time."""

from repro.cluster.clock import ClockEvent, SimClock
from repro.cluster.device import Device, GiB
from repro.cluster.failures import (
    FailureEvent,
    FailurePhase,
    FailureSchedule,
    FailureSource,
)
from repro.cluster.kvstore import FAILURE_FLAG, KVStore
from repro.cluster.machine import Machine
from repro.cluster.storage import (
    Blob,
    GlobalStore,
    LocalDisk,
    pipelined_transfer_time,
)
from repro.cluster.topology import BandwidthModel, Cluster

__all__ = [
    "SimClock",
    "ClockEvent",
    "Device",
    "GiB",
    "Machine",
    "Cluster",
    "BandwidthModel",
    "KVStore",
    "FAILURE_FLAG",
    "LocalDisk",
    "GlobalStore",
    "Blob",
    "pipelined_transfer_time",
    "FailureEvent",
    "FailurePhase",
    "FailureSchedule",
    "FailureSource",
]
