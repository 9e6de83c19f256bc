"""Candidate enumeration over the joint configuration space.

The paper's Section 3 decision chain and Section 5.4 calculus make
strategy choice a *quantitative* decision; this module turns the whole
configuration question — parallelism kind and degree, micro-batch count,
recovery strategy, parallel-recovery degree, selective-logging budget,
and checkpoint cadence — into an enumerable, mutable space of
:class:`Candidate` points.

Infeasible points must cost nothing: :meth:`SearchSpace.feasible` runs
the cheap structural checks first (placement fit, strategy/parallelism
compatibility, Table-1 optimizer invertibility, replica coverage, the
Section 5.4 logging calculus) and only then the full spec cross-field
validators, recording *why* each point died in :class:`PruneStats` so
the final :class:`~repro.plan.PlanSearchReport` can show where the grid
collapsed.

Two concrete spaces ship: :class:`ExperimentSearchSpace` re-plans a
live :class:`~repro.api.Experiment` (and can lower any candidate back
into one for engine-measured validation), while
:class:`WorkloadSearchSpace` searches a published Table-2
:class:`~repro.sim.Workload` analytically.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.strategy import MECHANISMS_BY_KIND, logging_worth_it
from repro.errors import ConfigurationError
from repro.optim import OPTIMIZER_TABLE1_BY_CLASS, optimizer_invertible
from repro.parallel.programs import default_virtual_stages
from repro.sim.costmodel import HardwareConfig
from repro.sim.workloads import Workload

__all__ = [
    "Candidate",
    "PruneStats",
    "SearchSpace",
    "ExperimentSearchSpace",
    "WorkloadSearchSpace",
    "PlanSearchError",
]

GB = 1e9


class PlanSearchError(ConfigurationError):
    """A plan search could not produce any feasible candidate.

    >>> raise PlanSearchError("no feasible candidates")
    Traceback (most recent call last):
        ...
    repro.plan.space.PlanSearchError: no feasible candidates
    """


@dataclass(frozen=True)
class Candidate:
    """One point of the (parallelism x recovery x cadence) space.

    Frozen and hashable so spaces can memoize derived experiments and
    the objective can memoize cost evaluations.  ``log_budget_gb`` is
    the Section 5.3 selective-logging storage budget (``None`` =
    unbudgeted logging).

    >>> c = Candidate(kind="pp", num_workers=4, num_microbatches=4,
    ...               strategy="logging", checkpoint_interval=20,
    ...               parallel_recovery_degree=4)
    >>> c.label()
    'pp4xm4/logging/ckpt20/pr4'
    >>> c.to_dict()["strategy"]
    'logging'
    """

    kind: str
    num_workers: int
    num_microbatches: int
    strategy: str
    checkpoint_interval: int
    parallel_recovery_degree: int = 1
    log_budget_gb: float | None = None
    #: registered pipeline schedule program (pp candidates only)
    schedule: str = "1f1b"

    def key(self) -> tuple:
        """Total-order identity (used for deterministic tie-breaking)."""
        return (
            self.kind, self.num_workers, self.num_microbatches,
            self.strategy, self.checkpoint_interval,
            self.parallel_recovery_degree,
            self.schedule,
            -1.0 if self.log_budget_gb is None else float(self.log_budget_gb),
        )

    def cost_key(self) -> tuple:
        """Analytic-cost identity: the budget does not change the
        cost-model pricing (group count affects storage, not timing), so
        budget variants share one objective evaluation."""
        return self.key()[:7]

    def label(self) -> str:
        """Compact human-readable name, e.g. ``dp4/replication/ckpt50``."""
        layout = f"{self.kind}{self.num_workers}"
        if self.kind == "pp":
            layout += f"xm{self.num_microbatches}"
            if self.schedule != "1f1b":
                layout += f"-{self.schedule}"
        parts = [layout, self.strategy, f"ckpt{self.checkpoint_interval}"]
        if self.strategy == "logging":
            parts.append(f"pr{self.parallel_recovery_degree}")
            if self.log_budget_gb is not None:
                parts.append(f"budget{self.log_budget_gb:g}G")
        return "/".join(parts)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "num_workers": self.num_workers,
            "num_microbatches": self.num_microbatches,
            "strategy": self.strategy,
            "checkpoint_interval": self.checkpoint_interval,
            "parallel_recovery_degree": self.parallel_recovery_degree,
            "log_budget_gb": self.log_budget_gb,
            "schedule": self.schedule,
        }

    def apply(self, base: "Experiment") -> "Experiment":
        """Lower this candidate onto ``base``'s model/data/cluster.

        Placement and partition sizes reset to their block-fill /
        balanced defaults (the search explores degrees, not custom
        placements), and ``checkpoint_after_recovery`` is forced on so
        multi-failure scenario runs never need a crashed machine's
        dropped log records.

        >>> from repro.api import Experiment, ModelSpec, ParallelismSpec
        >>> base = Experiment(model=ModelSpec(family="mlp", dim=4,
        ...                                   hidden_dim=8),
        ...                   parallelism=ParallelismSpec(kind="dp",
        ...                                               num_workers=2))
        >>> c = Candidate(kind="dp", num_workers=2, num_microbatches=1,
        ...               strategy="replication", checkpoint_interval=10)
        >>> c.apply(base).fault_tolerance.strategy
        'replication'
        """
        par = replace(
            base.parallelism,
            kind=self.kind,
            num_workers=self.num_workers,
            num_microbatches=max(1, self.num_microbatches),
            placement=None,
            partition_sizes=None,
            schedule=self.schedule if self.kind == "pp" else "1f1b",
            virtual_stages=0,  # resolve from the schedule's default
        )
        ft = replace(
            base.fault_tolerance,
            strategy=self.strategy,
            checkpoint_interval=self.checkpoint_interval,
            parallel_recovery_degree=self.parallel_recovery_degree,
            log_budget_bytes=(
                None if self.log_budget_gb is None
                else self.log_budget_gb * GB
            ),
            checkpoint_after_recovery=True,
        )
        return base.with_(parallelism=par, fault_tolerance=ft)


@dataclass
class PruneStats:
    """Where the grid collapsed: enumerated vs feasible vs pruned-by.

    >>> stats = PruneStats()
    >>> stats.record("placement")
    >>> stats.record(None)
    >>> (stats.enumerated, stats.feasible, stats.pruned)
    (2, 1, {'placement': 1})
    """

    enumerated: int = 0
    feasible: int = 0
    pruned: dict[str, int] = field(default_factory=dict)

    def record(self, reason: str | None) -> None:
        self.enumerated += 1
        if reason is None:
            self.feasible += 1
        else:
            self.pruned[reason] = self.pruned.get(reason, 0) + 1


class SearchSpace:
    """Shared enumeration/mutation machinery of the concrete spaces.

    Subclasses provide the per-dimension grids (``kinds``,
    ``worker_counts``, ``microbatch_counts``, ``intervals``,
    ``recovery_degrees``, ``log_budgets_gb``, ``schedules``) plus
    ``_feasibility_reason``, ``default``, ``to_workload`` and
    ``describe``; everything else — candidate enumeration, prune
    accounting, seeded mutation — lives here.

    >>> from repro.api import (ClusterSpec, Experiment, ModelSpec,
    ...                        ParallelismSpec)
    >>> space = ExperimentSearchSpace(Experiment(
    ...     model=ModelSpec(family="mlp", dim=4, hidden_dim=8),
    ...     cluster=ClusterSpec(num_machines=2, devices_per_machine=1),
    ...     parallelism=ParallelismSpec(kind="dp", num_workers=2)))
    >>> space.feasible(space.default()) is None   # default always runs
    True
    >>> space.grid_size() > 0
    True
    """

    #: machines the scenario sampler should crash (set by subclasses)
    num_machines: int = 1
    #: the testbed the objective prices every candidate on
    hardware: HardwareConfig = HardwareConfig()

    def __init__(self) -> None:
        self.stats = PruneStats()
        self._verdicts: dict[Candidate, str | None] = {}
        #: ``(cost_key, iteration budget) -> (workload, method, Pricing)``
        #: (``GoodputObjective.price``; a space's hardware and base are
        #: fixed at construction)
        self.prices: dict[tuple, tuple] = {}

    # -- subclass interface ------------------------------------------------
    def _feasibility_reason(self, candidate: Candidate) -> str | None:
        raise NotImplementedError

    def default(self) -> Candidate:
        raise NotImplementedError

    def to_workload(self, candidate: Candidate) -> Workload:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def to_experiment(self, candidate: Candidate) -> "Experiment":
        raise PlanSearchError(
            f"{type(self).__name__} is analytic-only; engine validation "
            "needs an ExperimentSearchSpace"
        )

    def scenario_horizon(self, spec) -> float:
        """Hours of scenario the objective should sample."""
        return spec.horizon_hours

    def _strategies_for(self, kind: str) -> tuple[str, ...]:
        strategies = tuple(s.value for s in MECHANISMS_BY_KIND[kind])
        if self.strategies is not None:
            strategies = tuple(
                s for s in strategies if s in self.strategies
            )
        return strategies

    # -- enumeration -------------------------------------------------------
    def candidates(self):
        """Yield the raw grid (feasible and infeasible alike)."""
        for kind in self.kinds:
            micros = self.microbatch_counts if kind == "pp" else (1,)
            scheds = self.schedules if kind == "pp" else ("1f1b",)
            for workers in self.worker_counts:
                for m in micros:
                    for strategy in self._strategies_for(kind):
                        logging = strategy == "logging"
                        degrees = (
                            self.recovery_degrees if logging else (1,)
                        )
                        budgets = (
                            self.log_budgets_gb if logging else (None,)
                        )
                        for interval in self.intervals:
                            for degree in degrees:
                                for budget in budgets:
                                    for sched in scheds:
                                        yield Candidate(
                                            kind=kind,
                                            num_workers=workers,
                                            num_microbatches=m,
                                            strategy=strategy,
                                            checkpoint_interval=interval,
                                            parallel_recovery_degree=degree,
                                            log_budget_gb=budget,
                                            schedule=sched,
                                        )

    def feasible(self, candidate: Candidate) -> str | None:
        """``None`` if the candidate survives, else the prune reason
        (recorded in :attr:`stats` per call, judged once per space)."""
        try:
            reason = self._verdicts[candidate]
        except KeyError:
            reason = self._feasibility_reason(candidate)
            self._verdicts[candidate] = reason
        self.stats.record(reason)
        return reason

    def iter_feasible(self):
        for candidate in self.candidates():
            if self.feasible(candidate) is None:
                yield candidate

    def grid_size(self) -> int:
        """Raw grid cardinality (no feasibility checks, no stats)."""
        return sum(1 for _ in self.candidates())

    def reset_stats(self) -> None:
        """Zero the prune counters; the verdicts behind them are kept."""
        self.stats = PruneStats()

    # -- mutation (seeded searchers) ---------------------------------------
    def _normalized(self, candidate: Candidate) -> Candidate:
        """Canonical form: recovery knobs only exist where they act."""
        if candidate.strategy != "logging":
            candidate = replace(
                candidate, parallel_recovery_degree=1, log_budget_gb=None
            )
        if candidate.kind != "pp":
            candidate = replace(
                candidate, num_microbatches=1, schedule="1f1b"
            )
        return candidate

    def _mutation_dims(self, candidate: Candidate) -> dict:
        dims = {
            "checkpoint_interval": self.intervals,
            "strategy": self._strategies_for(candidate.kind),
        }
        if len(self.worker_counts) > 1:
            dims["num_workers"] = self.worker_counts
        if candidate.kind == "pp":
            dims["num_microbatches"] = self.microbatch_counts
            if len(self.schedules) > 1:
                dims["schedule"] = self.schedules
        if candidate.strategy == "logging":
            dims["parallel_recovery_degree"] = self.recovery_degrees
            if len(self.log_budgets_gb) > 1:
                dims["log_budget_gb"] = self.log_budgets_gb
        return dims

    def mutate(self, candidate: Candidate, rng) -> Candidate:
        """Re-draw one dimension of ``candidate`` (deterministic given
        the caller's seeded ``rng``)."""
        dims = self._mutation_dims(candidate)
        names = sorted(dims)
        name = names[int(rng.integers(len(names)))]
        values = [
            v for v in dims[name] if v != getattr(candidate, name)
        ]
        if not values:
            return candidate
        value = values[int(rng.integers(len(values)))]
        return self._normalized(replace(candidate, **{name: value}))

    def random_candidate(self, rng) -> Candidate:
        """Uniform draw from the raw grid (anneal exploration)."""
        def pick(seq):
            return seq[int(rng.integers(len(seq)))]

        kind = pick(self.kinds)
        strategy = pick(self._strategies_for(kind))
        return self._normalized(Candidate(
            kind=kind,
            num_workers=pick(self.worker_counts),
            num_microbatches=(
                pick(self.microbatch_counts) if kind == "pp" else 1
            ),
            strategy=strategy,
            checkpoint_interval=pick(self.intervals),
            parallel_recovery_degree=(
                pick(self.recovery_degrees)
                if strategy == "logging" else 1
            ),
            log_budget_gb=(
                pick(self.log_budgets_gb)
                if strategy == "logging" else None
            ),
            schedule=pick(self.schedules) if kind == "pp" else "1f1b",
        ))


def _powers_of_two_upto(limit: int) -> tuple[int, ...]:
    counts = []
    w = 2
    while w < limit:
        counts.append(w)
        w *= 2
    counts.append(limit)
    return tuple(dict.fromkeys(c for c in counts if c >= 1))


class ExperimentSearchSpace(SearchSpace):
    """Search over re-plans of a live :class:`~repro.api.Experiment`.

    The base experiment pins model, data, and cluster; the space varies
    parallelism kind/degree, micro-batching, recovery strategy and
    degree, selective-logging budget, and checkpoint cadence.  Every
    surviving candidate lowers back into a real ``Experiment`` (memoized
    per candidate), so the final verdict can be engine-measured.

    >>> from repro.api import (ClusterSpec, Experiment, ModelSpec,
    ...                        ParallelismSpec)
    >>> space = ExperimentSearchSpace(Experiment(
    ...     model=ModelSpec(family="mlp", dim=4, hidden_dim=8),
    ...     cluster=ClusterSpec(num_machines=2, devices_per_machine=1),
    ...     parallelism=ParallelismSpec(kind="dp", num_workers=2)))
    >>> space.feasible(Candidate(kind="pp", num_workers=2,
    ...     num_microbatches=64, strategy="logging",
    ...     checkpoint_interval=10))          # batch 32 < 64 microbatches
    'microbatch'
    >>> space.stats.pruned["microbatch"]
    1
    """

    def __init__(
        self,
        base: "Experiment",
        *,
        kinds: tuple[str, ...] | None = None,
        worker_counts: tuple[int, ...] | None = None,
        microbatch_counts: tuple[int, ...] = (1, 2, 4, 8),
        intervals: tuple[int, ...] = (5, 10, 20, 50, 100),
        recovery_degrees: tuple[int, ...] = (1, 2, 4),
        log_budgets_gb: tuple[float | None, ...] = (None,),
        strategies: tuple[str, ...] | None = None,
        schedules: tuple[str, ...] = ("1f1b",),
    ) -> None:
        super().__init__()
        self.base = base
        cluster = base.cluster
        self.num_machines = cluster.num_machines
        self.hardware = base.hardware_config()
        self.kinds = tuple(kinds) if kinds else ("dp", "pp", "fsdp")
        if worker_counts is None:
            worker_counts = _powers_of_two_upto(cluster.num_slots)
        self.worker_counts = tuple(worker_counts)
        self.microbatch_counts = tuple(
            m for m in microbatch_counts if m <= base.data.batch_size
        ) or (1,)
        self.intervals = tuple(intervals)
        self.recovery_degrees = tuple(recovery_degrees)
        self.log_budgets_gb = tuple(log_budgets_gb)
        self.strategies = tuple(strategies) if strategies else None
        self.schedules = tuple(schedules)
        self._experiments: dict[Candidate, "Experiment"] = {}
        self._workloads: dict[tuple, Workload] = {}

    def _spanned_machines(self, num_workers: int) -> int:
        d = self.base.cluster.devices_per_machine
        return -(-num_workers // d)  # block-fill placement, ceil

    def _feasibility_reason(self, c: Candidate) -> str | None:
        base, cluster = self.base, self.base.cluster
        if c.checkpoint_interval < 1 or c.parallel_recovery_degree < 1:
            return "bounds"
        if c.kind not in MECHANISMS_BY_KIND:
            return "unknown_kind"
        if c.strategy not in MECHANISMS_BY_KIND[c.kind]:
            return "strategy_kind"
        if c.num_workers > cluster.num_slots:
            return "placement"
        spanned = self._spanned_machines(c.num_workers)
        if c.kind == "fsdp" and (c.num_workers < 2 or spanned < 2):
            return "fsdp_spread"
        if c.strategy == "replication":
            if spanned < 2:
                return "replica_coverage"
            if not optimizer_invertible(base.model.table1_optimizer):
                return "optimizer_not_invertible"
        if c.kind == "pp":
            try:
                v = default_virtual_stages(c.schedule)
            except ConfigurationError:
                return "unknown_schedule"
            if base.data.batch_size < c.num_microbatches:
                return "microbatch"
            if base.model.num_partitionable_layers() < c.num_workers * v:
                return "partition"
            if v > 1 and c.num_microbatches % c.num_workers != 0:
                return "schedule_shape"
            if c.strategy == "logging" and spanned < 2:
                return "single_machine"
        # final authority: the full cross-field spec validators
        try:
            exp = self._experiment(c)
        except ConfigurationError:
            return "spec_invalid"
        # Section 5.4: never pay to cost logging that is not worth doing
        # (chunk-level volume against the schedule's own bubble, so a
        # many-chunk candidate is refused by the numbers, not by name)
        if c.strategy == "logging" and not exp._logging_feasibility().worth_it:
            return "not_worth_it"
        return None

    def _experiment(self, c: Candidate) -> "Experiment":
        exp = self._experiments.get(c)
        if exp is None:
            exp = c.apply(self.base)
            self._experiments[c] = exp
        return exp

    def to_experiment(self, c: Candidate) -> "Experiment":
        """The candidate lowered onto the base specs (validated)."""
        return self._experiment(c)

    def default(self) -> Candidate:
        """The naive plan: keep the base layout, checkpoint-only (which
        every engine kind can run) at the spec's cadence."""
        par, ft = self.base.parallelism, self.base.fault_tolerance
        return Candidate(
            kind=par.kind,
            num_workers=par.num_workers,
            num_microbatches=(
                par.num_microbatches if par.kind == "pp" else 1
            ),
            strategy="checkpoint_only",
            checkpoint_interval=ft.checkpoint_interval,
            parallel_recovery_degree=1,
            schedule=par.schedule if par.kind == "pp" else "1f1b",
        )

    def to_workload(self, c: Candidate) -> Workload:
        """The candidate's experiment as the cost model sees it, lowered
        once per layout and re-timed per cadence (strategy, degree and
        budget do not reach a workload)."""
        exp = self._experiment(c)
        layout = (c.kind, c.num_workers, c.num_microbatches, c.schedule)
        w = self._workloads.get(layout)
        if w is None:
            w = self._workloads[layout] = exp.to_workload()
        return replace(w, checkpoint_interval_iters=c.checkpoint_interval)

    def winning_plan(self, report) -> "ExecutionPlan":
        """The winner's :class:`~repro.api.ExecutionPlan`, stamped with
        search provenance instead of ``"user"``."""
        exp = self.to_experiment(report.winner)
        return replace(
            exp.plan(),
            provenance=f"autoplan:{report.searcher}:{report.scenario}",
        )

    def describe(self) -> str:
        return (
            f"ExperimentSearchSpace(base={self.base.name!r}, "
            f"kinds={self.kinds}, workers={self.worker_counts}, "
            f"microbatches={self.microbatch_counts}, "
            f"intervals={self.intervals}, "
            f"degrees={self.recovery_degrees}, "
            f"budgets_gb={self.log_budgets_gb}, "
            f"schedules={self.schedules})"
        )


class WorkloadSearchSpace(SearchSpace):
    """Search over a published Table-2 workload's recovery configuration.

    The layout is pinned by the published row (stage count, machines);
    the space varies micro-batch count (re-timing the pipeline span
    ``m + p - 1`` accordingly), strategy, parallel-recovery degree, and
    checkpoint cadence around the Table-4 setting.  Analytic-only:
    :meth:`to_experiment` raises, engine validation needs an
    :class:`ExperimentSearchSpace`.

    >>> from repro.sim import BERT_128
    >>> space = WorkloadSearchSpace(BERT_128)
    >>> space.default().label()
    'pp128xm4/checkpoint_only/ckpt5000'
    >>> space.feasible(space.default()) is None
    True
    """

    def __init__(
        self,
        workload: Workload,
        *,
        intervals: tuple[int, ...] | None = None,
        microbatch_counts: tuple[int, ...] | None = None,
        recovery_degrees: tuple[int, ...] = (1, 4, 16),
        log_budgets_gb: tuple[float | None, ...] = (None,),
        strategies: tuple[str, ...] | None = None,
    ) -> None:
        super().__init__()
        self.workload = workload
        self.kind = "pp" if workload.parallelism == "PP" else "dp"
        self.kinds = (self.kind,)
        self.num_machines = workload.num_machines
        fixed_workers = (
            workload.num_stages if self.kind == "pp"
            else workload.num_workers
        )
        self.worker_counts = (fixed_workers,)
        base_interval = workload.checkpoint_interval_iters or 100
        if intervals is None:
            intervals = tuple(sorted({
                max(1, int(base_interval * f))
                for f in (0.25, 0.5, 1.0, 2.0, 4.0)
            }))
        self.intervals = tuple(intervals)
        if microbatch_counts is None:
            if self.kind == "pp":
                m = workload.num_microbatches
                microbatch_counts = tuple(sorted({
                    x for x in (m // 2, m, 2 * m)
                    if 1 <= x <= workload.batch_size
                }))
            else:
                microbatch_counts = (1,)
        self.microbatch_counts = tuple(microbatch_counts)
        self.recovery_degrees = tuple(recovery_degrees)
        self.log_budgets_gb = tuple(log_budgets_gb)
        self.strategies = tuple(strategies) if strategies else None
        #: analytic timing is pinned to the published flat-1F1B rows
        self.schedules = ("1f1b",)

    def _feasibility_reason(self, c: Candidate) -> str | None:
        w = self.workload
        if c.checkpoint_interval < 1 or c.parallel_recovery_degree < 1:
            return "bounds"
        if c.strategy not in MECHANISMS_BY_KIND[c.kind]:
            return "strategy_kind"
        if c.strategy == "replication":
            if w.num_machines < 2:
                return "replica_coverage"
            table1 = OPTIMIZER_TABLE1_BY_CLASS.get(w.optimizer)
            if table1 is None or not optimizer_invertible(table1):
                return "optimizer_not_invertible"
        if c.kind == "pp":
            if w.batch_size < c.num_microbatches:
                return "microbatch"
            if c.strategy == "logging":
                if w.num_machines < 2:
                    return "single_machine"
                cw = self.to_workload(c)
                feas = logging_worth_it(
                    2.0 * cw.num_microbatches * cw.boundary_bytes,
                    cw.iteration_time or cw.experiment_iteration_time,
                    cw.num_stages,
                    cw.num_microbatches,
                    self.hardware.pcie_bw,
                    model_state_bytes=cw.state_bytes,
                )
                if not feas.worth_it:
                    return "not_worth_it"
        return None

    def default(self) -> Candidate:
        """The published Table-4 configuration under checkpoint-only."""
        w = self.workload
        return Candidate(
            kind=self.kind,
            num_workers=self.worker_counts[0],
            num_microbatches=(
                w.num_microbatches if self.kind == "pp" else 1
            ),
            strategy="checkpoint_only",
            checkpoint_interval=w.checkpoint_interval_iters or 100,
            parallel_recovery_degree=1,
        )

    def to_workload(self, c: Candidate) -> Workload:
        """The published row re-timed for the candidate's micro-batch
        count and cadence.  A fixed batch split into ``m`` micro-batches
        makes one iteration span ``(m + p - 1)`` micro-batch slots of
        ``1/m`` the work each, so time scales with ``(m + p - 1) / m``
        relative to the published setting."""
        w = self.workload
        if self.kind == "pp" and c.num_microbatches != w.num_microbatches:
            p = w.num_stages
            scale = (
                w.num_microbatches * (c.num_microbatches + p - 1)
            ) / (
                c.num_microbatches * (w.num_microbatches + p - 1)
            )
            return replace(
                w,
                num_microbatches=c.num_microbatches,
                checkpoint_interval_iters=c.checkpoint_interval,
                experiment_iteration_time=(
                    w.experiment_iteration_time * scale
                ),
                end_to_end_hours=w.end_to_end_hours * scale,
            )
        return replace(w, checkpoint_interval_iters=c.checkpoint_interval)

    def scenario_horizon(self, spec) -> float:
        """1.5x the published end-to-end hours, as
        :func:`repro.chaos.evaluate_scenario` does, so events keep
        arriving for the slower candidates too."""
        return max(
            spec.horizon_hours,
            1.5 * (self.workload.end_to_end_hours or 100.0),
        )

    def describe(self) -> str:
        return (
            f"WorkloadSearchSpace(workload={self.workload.name!r}, "
            f"kind={self.kind!r}, microbatches={self.microbatch_counts}, "
            f"intervals={self.intervals}, "
            f"degrees={self.recovery_degrees}, "
            f"budgets_gb={self.log_budgets_gb})"
        )
