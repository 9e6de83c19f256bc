"""Analytic expected-goodput objective with memoized evaluations.

Scoring a candidate means pricing its recovery configuration under the
*same* pre-sampled failure traces every other candidate sees (the
comparison is paired: the trace carries all the randomness), via
:func:`repro.chaos.evaluate_traces` with the candidate's
:meth:`CostModel.pricing <repro.sim.CostModel.pricing>`, built once per
cost key on the space's :class:`~repro.sim.HardwareConfig` (an
experiment's own replacement join).  :meth:`GoodputObjective.score_all`
prices a whole batch of keys in one walk of each trace, so a full grid
is searchable interactively.

Candidates that differ only in selective-logging budget share one
evaluation (:meth:`Candidate.cost_key`): the budget shapes storage
grouping, not the analytic timing.  The memo hit rate is surfaced in
:class:`~repro.plan.PlanSearchReport`.

The ranking metric is **goodput in samples per second** —
``batch_size * total_iterations / wall_clock`` — not the availability
fraction alone: a layout that computes faster *and* recovers worse must
be able to beat a slow-but-safe one, and samples/s prices both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.chaos.evaluate import evaluate_traces, method_for_strategy
from repro.chaos.scenarios import get_scenario
from repro.errors import ConfigurationError
from repro.plan.space import Candidate, SearchSpace
from repro.sim.costmodel import CostModel

__all__ = ["CandidateScore", "GoodputObjective"]

#: floor iteration time when a bridge workload reports none; keeps the
#: horizon -> iteration mapping finite for degenerate inputs
_MIN_ITER_TIME = 1e-6


@dataclass(frozen=True)
class CandidateScore:
    """One candidate's predicted outcome under the scenario.

    >>> c = Candidate(kind="dp", num_workers=2, num_microbatches=1,
    ...               strategy="replication", checkpoint_interval=10)
    >>> s = CandidateScore(candidate=c, method="swift_replication",
    ...     goodput_samples_per_sec=100.0, goodput_fraction=0.99,
    ...     mean_hours=1.0, failure_free_hours=0.99, mean_crashes=2.0,
    ...     goodput_by_seed=(0.99,))
    >>> s.to_dict()["method"]
    'swift_replication'
    """

    candidate: Candidate
    #: analytic cost-model method (``swift_replication``, ...)
    method: str
    #: the ranking metric: useful samples per wall-clock second
    goodput_samples_per_sec: float
    #: failure-free time / actual time, averaged over seeds
    goodput_fraction: float
    mean_hours: float
    failure_free_hours: float
    mean_crashes: float
    goodput_by_seed: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "candidate": self.candidate.to_dict(),
            "label": self.candidate.label(),
            "method": self.method,
            "goodput_samples_per_sec": self.goodput_samples_per_sec,
            "goodput_fraction": self.goodput_fraction,
            "mean_hours": self.mean_hours,
            "failure_free_hours": self.failure_free_hours,
            "mean_crashes": self.mean_crashes,
            "goodput_by_seed": list(self.goodput_by_seed),
        }


class GoodputObjective:
    """Paired analytic scoring of candidates under one chaos scenario.

    Traces are sampled once at construction (one per ``eval_seeds``
    seed, over the space's scenario horizon) and shared by every
    :meth:`score` and :meth:`score_all` call, so two candidates always
    face identical failure timelines.

    >>> from repro.api import (ClusterSpec, Experiment, ModelSpec,
    ...                        ParallelismSpec)
    >>> from repro.plan.space import ExperimentSearchSpace
    >>> space = ExperimentSearchSpace(Experiment(
    ...     model=ModelSpec(family="mlp", dim=4, hidden_dim=8),
    ...     cluster=ClusterSpec(num_machines=2, devices_per_machine=1),
    ...     parallelism=ParallelismSpec(kind="dp", num_workers=2)))
    >>> objective = GoodputObjective(space, "steady_mtbf", eval_seeds=1)
    >>> score = objective.score(space.default())
    >>> 0.0 < score.goodput_fraction <= 1.0
    True
    >>> _ = objective.score(space.default())   # memoized second hit
    >>> (objective.hits, objective.misses)
    (1, 1)
    """

    def __init__(
        self,
        space: SearchSpace,
        scenario,
        eval_seeds: int = 3,
        horizon_hours: float | None = None,
    ) -> None:
        if eval_seeds < 1:
            raise ConfigurationError(
                f"eval_seeds must be >= 1, got {eval_seeds}"
            )
        self.space = space
        self.spec = get_scenario(scenario)
        self.scenario = self.spec.name
        self.eval_seeds = eval_seeds
        self.horizon_hours = (
            horizon_hours if horizon_hours is not None
            else space.scenario_horizon(self.spec)
        )
        self.traces = tuple(
            self.spec.sample(
                seed, space.num_machines, horizon_hours=self.horizon_hours
            )
            for seed in range(eval_seeds)
        )
        # bridge workloads carry no published iteration budget: map the
        # scenario horizon onto iterations of the *default* candidate so
        # every candidate races the same total work
        ref = space.to_workload(space.default())
        self._total_override = None
        if not ref.total_iterations:
            it = max(ref.iteration_time or ref.experiment_iteration_time,
                     _MIN_ITER_TIME)
            self._total_override = max(
                1, int(self.horizon_hours * 3600.0 / it)
            )
        self.hits = 0
        self.misses = 0
        self._cache: dict[tuple, CandidateScore] = {}

    def candidate_workload(self, candidate: Candidate):
        """The candidate's workload with the shared iteration budget."""
        w = self.space.to_workload(candidate)
        if self._total_override is not None:
            it = max(w.experiment_iteration_time, _MIN_ITER_TIME)
            w = replace(
                w,
                total_iterations=self._total_override,
                end_to_end_hours=self._total_override * it / 3600.0,
            )
        return w

    def score(self, candidate: Candidate) -> CandidateScore:
        """Predicted goodput of ``candidate`` (memoized on cost_key)."""
        return self.score_all((candidate,))[0]

    def score_all(self, candidates) -> list[CandidateScore]:
        """Predicted goodput of each candidate, in order.

        Hits and misses count as one :meth:`score` per candidate would,
        but every missing cost key is priced in one batch: each trace is
        walked once for all of them.
        """
        candidates = list(candidates)
        keys = [candidate.cost_key() for candidate in candidates]
        fresh: dict[tuple, tuple] = {}
        for candidate, key in zip(candidates, keys):
            if key in self._cache or key in fresh:
                self.hits += 1
            else:
                self.misses += 1
                fresh[key] = (candidate, self.candidate_workload(candidate),
                              method_for_strategy(candidate.strategy))
        if fresh:
            results = evaluate_traces(self.traces, [
                (CostModel(w, self.space.hardware, use_experiment_time=False)
                 .pricing(method, c.checkpoint_interval,
                          c.parallel_recovery_degree), w.total_iterations)
                for c, w, method in fresh.values()])
            for (key, (c, w, method)), per_seed in zip(fresh.items(),
                                                       results):
                mean_hours = sum(r.hours for r in per_seed) / len(per_seed)
                fractions = tuple(r.goodput_fraction for r in per_seed)
                self._cache[key] = CandidateScore(
                    candidate=c,
                    method=method,
                    goodput_samples_per_sec=(
                        w.batch_size * w.total_iterations
                        / (mean_hours * 3600.0)
                        if mean_hours > 0 else 0.0
                    ),
                    goodput_fraction=sum(fractions) / len(fractions),
                    mean_hours=mean_hours,
                    failure_free_hours=per_seed[0].failure_free_hours,
                    mean_crashes=(
                        sum(r.num_crashes for r in per_seed) / len(per_seed)
                    ),
                    goodput_by_seed=fractions,
                )
        scores = [self._cache[key] for key in keys]
        return [s if s.candidate is c else replace(s, candidate=c)
                for s, c in zip(scores, candidates)]

    @property
    def evaluations(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.evaluations if self.evaluations else 0.0
