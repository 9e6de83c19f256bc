"""Monte-Carlo end-to-end training-time simulation (Section 7.3).

Reproduces Table 5 and Figures 12-13: given a workload's total iteration
count, per-iteration time, checkpoint (or snapshot) interval, and a
median-time-between-failure, inject failures uniformly at random and
accumulate the end-to-end completion time under each fault-tolerance
method.  Each configuration is repeated and averaged (the paper repeats
ten times).  Every iteration and every failure is priced by one
:meth:`~repro.sim.CostModel.pricing`, resolved once per call; only the
failure walk — exponential inter-arrival times, work lost back to the
last interval boundary — lives here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.costmodel import CostModel
from repro.sim.workloads import Workload

__all__ = ["EndToEndResult", "EndToEndSimulator"]


@dataclass(frozen=True)
class EndToEndResult:
    method: str
    mean_hours: float
    std_hours: float
    mean_failures: float
    failure_free_hours: float

    @property
    def overhead_hours(self) -> float:
        return self.mean_hours - self.failure_free_hours


class EndToEndSimulator:
    """Simulates full training runs with stochastic failures."""

    def __init__(self, workload: Workload, cost: CostModel | None = None,
                 median_tbf_hours: float = 17.0, repeats: int = 10,
                 seed: int = 0):
        self.w = workload
        # the simulation study runs on Table 4's production iteration times
        self.cost = cost or CostModel(workload, use_experiment_time=False)
        self.median_tbf_hours = median_tbf_hours
        self.repeats = repeats
        self.seed = seed

    # -- the simulation ------------------------------------------------------------
    def simulate(
        self,
        method: str,
        interval: int | None = None,
        median_tbf_hours: float | None = None,
    ) -> EndToEndResult:
        """Average end-to-end hours for one method over ``repeats`` runs.

        ``interval`` is the checkpoint interval (global checkpointing,
        Swift) or snapshot interval (CheckFreq/Elastic Horovod) in
        iterations; :meth:`~repro.sim.CostModel.pricing` resolves its
        default and refuses degenerate configurations.  A non-positive
        MTBF raises :class:`~repro.errors.ConfigurationError` too.
        """
        mtbf = median_tbf_hours or self.median_tbf_hours
        if mtbf <= 0:
            raise ConfigurationError(
                f"median_tbf_hours must be > 0, got {mtbf}"
            )
        pricing = self.cost.pricing(method, interval)
        iter_time, interval = pricing.iteration_seconds, pricing.interval
        total_iters = self.w.total_iterations
        failure_free_hours = total_iters * iter_time / 3600.0
        rate = np.log(2.0) / mtbf  # exponential rate from the median

        rng = np.random.default_rng(self.seed)
        hours: list[float] = []
        failures: list[int] = []
        for _ in range(self.repeats):
            elapsed = 0.0  # seconds
            completed = 0  # iterations finished and safe
            num_failures = 0
            next_failure = rng.exponential(1.0 / rate) * 3600.0
            while completed < total_iters:
                remaining = (total_iters - completed) * iter_time
                if elapsed + remaining <= next_failure:
                    elapsed += remaining
                    completed = total_iters
                    break
                # run until the failure strikes
                ran = int((next_failure - elapsed) // iter_time)
                completed += ran
                elapsed = next_failure
                num_failures += 1
                # Work lost since the last durable point.  The recovery
                # cost below already prices re-computing it (`recompute_time`
                # in the RecoveryTimes models), so `completed` is NOT rolled
                # back — that would double-count the lost work.
                if method == "swift_replication":
                    lost = 0  # undo resolves the partial update; nothing lost
                else:
                    lost = completed % interval
                elapsed += pricing.recovery(lost)
                next_failure = elapsed + rng.exponential(1.0 / rate) * 3600.0
            hours.append(elapsed / 3600.0)
            failures.append(num_failures)

        return EndToEndResult(
            method=method,
            mean_hours=float(np.mean(hours)),
            std_hours=float(np.std(hours)),
            mean_failures=float(np.mean(failures)),
            failure_free_hours=failure_free_hours,
        )

    def simulate_scenario(
        self,
        method: str,
        scenario,
        seeds: int | None = None,
        interval: int | None = None,
    ) -> EndToEndResult:
        """Average end-to-end hours under a named chaos scenario.

        Replaces the uniform-exponential failure model with machine-level
        events drawn from :mod:`repro.chaos`: correlated rack bursts,
        flaky nodes, storage outages, stragglers.  ``scenario`` is a
        scenario name or :class:`~repro.chaos.ScenarioSpec`; one trace is
        sampled per seed (``seeds`` defaults to ``self.repeats``, seeded
        from ``self.seed``) and evaluated by
        :func:`repro.chaos.evaluate.evaluate_trace`.
        """
        from repro.chaos.evaluate import evaluate_scenario

        num_seeds = seeds if seeds is not None else self.repeats
        if num_seeds < 1:
            raise ConfigurationError(
                f"simulate_scenario needs >= 1 seed, got {num_seeds}"
            )
        results = evaluate_scenario(
            scenario, self.w, method,
            seeds=range(self.seed, self.seed + num_seeds),
            interval=interval,
        )
        hours = [r.hours for r in results]
        return EndToEndResult(
            method=method,
            mean_hours=float(np.mean(hours)),
            std_hours=float(np.std(hours)),
            mean_failures=float(np.mean([r.num_crashes for r in results])),
            failure_free_hours=results[0].failure_free_hours,
        )

    def sweep_interval(self, method: str, intervals: list[int]
                       ) -> list[EndToEndResult]:
        """Figure 12: end-to-end time vs checkpoint/snapshot frequency."""
        return [self.simulate(method, interval=i) for i in intervals]

    def sweep_mtbf(self, method: str, mtbfs: list[float],
                   interval: int | None = None) -> list[EndToEndResult]:
        """Figure 13: end-to-end time vs failure frequency."""
        return [
            self.simulate(method, interval=interval, median_tbf_hours=m)
            for m in mtbfs
        ]
