"""Throughput-timeline generators (Figures 3, 8, and 9).

Each generator produces a per-iteration time series for one fault-tolerance
method over the paper's 200-iteration protocol (checkpoint at iteration
100, machine kill at iteration 150), from which benchmarks print both the
failure-free throughput (top of Figure 8) and the recovery behaviour
(bottom of Figure 8, Figure 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.checkpoint import checkfreq_interval
from repro.sim.costmodel import CostModel
from repro.sim.workloads import Workload

__all__ = ["TimelinePoint", "Timeline", "ThroughputSimulator"]


@dataclass(frozen=True)
class TimelinePoint:
    iteration: int
    #: seconds this iteration took (including stalls attributed to it)
    duration: float
    #: samples processed / duration
    throughput: float
    event: str = ""


@dataclass
class Timeline:
    method: str
    points: list[TimelinePoint] = field(default_factory=list)
    recovery_time: float = 0.0
    initialization_time: float = 0.0

    @property
    def steady_throughput(self) -> float:
        """Median throughput over event-free iterations."""
        plain = sorted(p.throughput for p in self.points if not p.event)
        return plain[len(plain) // 2] if plain else 0.0

    @property
    def total_time(self) -> float:
        return sum(p.duration for p in self.points) + self.recovery_time \
            + self.initialization_time


class ThroughputSimulator:
    """Reproduces the Section 7.1 macro-benchmark protocol for one method."""

    def __init__(
        self,
        workload: Workload,
        cost: CostModel | None = None,
        num_iterations: int = 200,
        checkpoint_at: int = 100,
        failure_at: int = 150,
    ):
        self.w = workload
        self.cost = cost or CostModel(workload)
        self.num_iterations = num_iterations
        self.checkpoint_at = checkpoint_at
        self.failure_at = failure_at

    def _base_points(self, extra_per_iter: float = 0.0) -> list[TimelinePoint]:
        t_iter = self.cost.iteration_time + extra_per_iter
        return [
            TimelinePoint(i, t_iter, self.w.batch_size / t_iter)
            for i in range(self.num_iterations)
        ]

    def _with_event(self, points: list[TimelinePoint], iteration: int,
                    extra: float, event: str) -> None:
        p = points[iteration]
        duration = p.duration + extra
        points[iteration] = TimelinePoint(
            iteration, duration, self.w.batch_size / duration, event
        )

    # -- methods -------------------------------------------------------------
    def global_checkpointing(self) -> Timeline:
        """PyTorch-default global checkpointing; failure at 150 rolls every
        worker back to the iteration-100 checkpoint."""
        points = self._base_points()
        self._with_event(points, self.checkpoint_at,
                         self.cost.global_checkpoint_stall(), "checkpoint")
        lost = self.failure_at - self.checkpoint_at
        rec = self.cost.recovery_global_checkpoint(lost)
        return Timeline("global_checkpointing", points, rec.recovery_time,
                        rec.initialization_time)

    def checkfreq(self, overhead_budget: float = 0.035) -> Timeline:
        """CheckFreq: periodic snapshots (stall + persist interference)."""
        stall = self.cost.snapshot_stall()
        interval = checkfreq_interval(self.cost.iteration_time, stall,
                                      overhead_budget)
        points = self._base_points()
        last_snapshot = 0
        for i in range(interval, self.num_iterations, interval):
            self._with_event(points, i, stall, "snapshot")
            # async persist leaks into following iterations (Figure 3)
            leak = self.cost.checkfreq_persist_interference()
            if i + 1 < self.num_iterations:
                self._with_event(points, i + 1, leak, "persist")
            if i < self.failure_at:
                last_snapshot = i
        self._with_event(points, self.checkpoint_at,
                         self.cost.global_checkpoint_stall(), "checkpoint")
        rec = self.cost.recovery_snapshot(self.failure_at - last_snapshot,
                                          "checkfreq")
        return Timeline("checkfreq", points, rec.recovery_time,
                        rec.initialization_time)

    def elastic_horovod(self, overhead_budget: float = 0.035) -> Timeline:
        """Elastic Horovod: snapshot only (no persist phase)."""
        stall = self.cost.snapshot_stall()
        interval = checkfreq_interval(self.cost.iteration_time, stall,
                                      overhead_budget)
        points = self._base_points()
        last_snapshot = 0
        for i in range(interval, self.num_iterations, interval):
            self._with_event(points, i, stall, "snapshot")
            if i < self.failure_at:
                last_snapshot = i
        self._with_event(points, self.checkpoint_at,
                         self.cost.global_checkpoint_stall(), "checkpoint")
        rec = self.cost.recovery_snapshot(self.failure_at - last_snapshot,
                                          "elastic_horovod")
        return Timeline("elastic_horovod", points, rec.recovery_time,
                        rec.initialization_time)

    def swift_replication(self) -> Timeline:
        """Swift on DP: zero failure-free overhead; undo+broadcast recovery."""
        points = self._base_points()
        self._with_event(points, self.checkpoint_at,
                         self.cost.global_checkpoint_stall(), "checkpoint")
        rec = self.cost.recovery_replication()
        return Timeline("swift_replication", points, rec.recovery_time,
                        rec.initialization_time)

    def swift_logging(
        self,
        num_groups: int | None = None,
        mode: str = "bubble",
        parallel_degree: int = 1,
    ) -> Timeline:
        """Swift on PP: logging overhead per mode; sub-pipeline replay."""
        groups = num_groups or self.w.num_machines
        overhead = self.cost.logging_overhead(mode, groups)
        points = self._base_points(extra_per_iter=overhead)
        self._with_event(points, self.checkpoint_at,
                         self.cost.global_checkpoint_stall(), "checkpoint")
        lost = self.failure_at - self.checkpoint_at
        machines_per_group = self.w.num_machines // groups
        rec = self.cost.recovery_logging(
            lost, machines_per_group=machines_per_group,
            parallel_degree=parallel_degree,
        )
        name = f"swift_logging_{groups}g" + ("_pr" if parallel_degree > 1 else "")
        if mode != "bubble":
            name = f"swift_logging_{mode}"
        return Timeline(name, points, rec.recovery_time,
                        rec.initialization_time)

    def recovery_timeline(
        self, method: str, resolution: float = 5.0, **kwargs
    ) -> list[tuple[float, float]]:
        """Figure 9: throughput vs wall time around the failure.

        Returns (seconds-since-failure, normalized throughput in [0, 1])
        samples: zero during recovery, back to steady state after.
        """
        timeline = getattr(self, method)(**kwargs)
        total = timeline.recovery_time + timeline.initialization_time
        series = []
        t = 0.0
        while t < total:
            series.append((t, 0.0))
            t += resolution
        for k in range(20):
            series.append((total + k * resolution, 1.0))
        return series
