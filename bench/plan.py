"""The planner workload.

One round = describe a fresh search space over an MLP experiment, run a
cold exhaustive ``autoplan`` under one failure scenario, then re-plan on
the now-warm space under another.  Inputs are fixed by the grid; the seed
only picks the model and data seeds, so every seed prices the same
candidates.
"""

from __future__ import annotations

import gc
import time

from bench import stats
from bench.spans import SpanLog, installed, plan_boundaries
from bench.workload import Deadline, Round

from repro.api import (
    ClusterSpec,
    DataSpec,
    Experiment,
    ModelSpec,
    ParallelismSpec,
)
from repro.plan import ExperimentSearchSpace, GoodputObjective, autoplan

_clock = time.perf_counter

SCENARIO, REPLAN_SCENARIO = "rack_burst", "flaky_node"
EVAL_SEEDS = 8


class PlanWorkload:
    def __init__(self, name: str, seed: int, scale: str, deadline: Deadline):
        self.name = name
        self.seed = seed
        self.tiny = scale == "tiny"
        self.deadline = deadline

    def _space(self) -> ExperimentSearchSpace:
        exp = Experiment(
            name=self.name,
            model=ModelSpec(family="mlp", dim=16, hidden_dim=64, depth=8,
                            num_classes=8, seed=self.seed),
            data=DataSpec(batch_size=32, seed=self.seed),
            cluster=ClusterSpec(num_machines=8, devices_per_machine=2),
            parallelism=ParallelismSpec(kind="dp", num_workers=8),
        )
        exp.plan()  # the naive plan a user looks at before searching
        grid = dict(
            kinds=("dp", "pp"), worker_counts=(2, 4),
            microbatch_counts=(1, 2), intervals=(10, 100),
            recovery_degrees=(1, 2),
        ) if self.tiny else dict(
            kinds=("dp", "pp", "fsdp"), worker_counts=(2, 4, 8, 16),
            microbatch_counts=(1, 2, 4, 8), intervals=(10, 50, 200),
            recovery_degrees=(1, 2, 4), log_budgets_gb=(None, 0.01),
            schedules=("gpipe", "1f1b", "interleaved_1f1b"),
        )
        space = ExperimentSearchSpace(exp, **grid)
        space.grid_size()
        return space

    def _search(self, space, scenario: str):
        return autoplan(space, scenario, searcher="exhaustive",
                        seed=self.seed, eval_seeds=EVAL_SEEDS, top_k=5)

    def cold_round(self) -> Round:
        return self.round(None)

    def extras(self) -> dict[str, float]:
        return {}

    def round(self, log: SpanLog | None) -> Round:
        gc.collect()
        self.deadline.check()
        if log is None:
            return self._drive(None)
        with installed(log, plan_boundaries()):
            return self._drive(log)

    def _drive(self, log: SpanLog | None) -> Round:
        start = _clock()
        space = self._space()
        t0 = _clock()
        report = self._search(space, SCENARIO)
        t1 = _clock()
        again = self._search(space, REPLAN_SCENARIO)
        t2 = _clock()
        if log is not None:
            log.add("harness.autoplan", t0, t1)
            log.add("harness.replan", t1, t2)
        rnd = Round(setup_s=t0 - start, run_s=t2 - t0, ops=[t1 - t0],
                    recoveries=[t2 - t1], attempted=2, spans=log)

        for rep, scenario in ((report, SCENARIO), (again, REPLAN_SCENARIO)):
            rnd.check(
                rep.winner_score.goodput_samples_per_sec
                >= rep.baseline.goodput_samples_per_sec,
                f"{scenario}: the recommended plan is worse than the default")
            # the memoised search must agree with pricing the winner alone
            alone = GoodputObjective(self._space(), scenario,
                                     eval_seeds=EVAL_SEEDS).score(rep.winner)
            rnd.check(alone == rep.winner_score,
                      f"{scenario}: winner's score differs when priced alone")
        rnd.digest = stats.digest(report.to_json(), again.to_json())
        rnd.exact = {
            "plan.enumerated": report.enumerated,
            "plan.feasible": report.feasible,
            "plan.pruned_total": sum(n for _, n in report.pruned),
            "plan.cache_hit_rate": report.cache_hit_rate,
        }
        if log is not None:
            rnd.layer = _layer_metrics(log, t0, t1)
        return rnd


def _layer_metrics(log: SpanLog, t0: float, t1: float) -> dict[str, float]:
    """Timings of the cold search of one traced round."""
    cold = [r for r in log.rows if t0 <= r[1] and r[2] <= t1]
    walls = lambda name: [r[2] - r[1] for r in cold if r[0] == name]  # noqa: E731
    scores = [r for r in cold if r[0] == "plan.score"]
    return {
        "plan.enumerate_ms": sum(walls("plan.feasible")) * 1e3,
        "plan.score_miss_us_p50": stats.median(
            [r[2] - r[1] for r in scores if not r[3]["hit"]]) * 1e6,
        "plan.score_hit_us_p50": stats.median(
            [r[2] - r[1] for r in scores if r[3]["hit"]]) * 1e6,
        "chaos.sample_traces_ms": sum(walls("chaos.sample_trace")) * 1e3,
        "chaos.evaluate_trace_us_p50": stats.median(
            [(r[2] - r[1]) / r[3]["traces"] for r in cold
             if r[0] == "chaos.evaluate_traces"]) * 1e6,
    }
