"""Analytic goodput evaluation of a fault-tolerance method under a trace.

The paper's headline comparison — replication vs logging vs global
checkpointing — was only ever simulated under uniform singleton failures
(Section 7.3).  This module walks an arbitrary
:class:`~repro.chaos.trace.FailureTrace` (correlated bursts, flaky
nodes, storage outages, stragglers) through the calibrated
:class:`~repro.sim.CostModel` and reports the end-to-end hours and
goodput fraction each method achieves.  Iterations and crashes are priced
by :meth:`CostModel.pricing <repro.sim.CostModel.pricing>` — the one
pricer :class:`~repro.sim.EndToEndSimulator` uses too; this module owns
only the trace walk.

Semantics:

* **crash** — the method pays its recovery cost; checkpoint-based
  methods additionally recompute everything since the last *durable*
  checkpoint, replication loses nothing (undo + broadcast), logging
  replays at the (possibly parallel) replay rate;
* **straggler** — synchronous training runs at the slowest worker's
  pace, so from the onset every iteration is scaled by the largest
  active slowdown factor (all methods suffer equally — stragglers
  compress the *relative* gap between methods);
* **storage_outage** — global-checkpoint persists pause during the
  window, so a crash after an outage loses work back to the last
  checkpoint that completed *before* it.  In-memory snapshots
  (CheckFreq/Elastic-Horovod) are unaffected.

The walk is segment-based (O(#events), not O(#iterations)); an
iteration in flight when an event lands is charged but not counted — the
same convention as :class:`~repro.sim.EndToEndSimulator`.  There is one
walk and it prices a batch: every branch is on the event, which all
prices share, so :func:`evaluate_traces` steps each trace's
``walk_order`` once with each price's state as one NumPy column, every
expression in the scalar operand order (a column is bit for bit the
price walked alone).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.chaos.scenarios import ScenarioSpec, get_scenario
from repro.chaos.trace import FailureTrace
from repro.core.strategy import FTStrategy
from repro.errors import ConfigurationError
from repro.sim.costmodel import CostModel
from repro.sim.workloads import Workload

__all__ = [
    "GoodputResult",
    "TraceColumns",
    "method_for_strategy",
    "evaluate_trace",
    "evaluate_traces",
    "evaluate_scenario",
    "sample_paired_traces",
]

#: analytic method names for the paper's three mechanisms
_STRATEGY_METHODS = {
    FTStrategy.REPLICATION: "swift_replication",
    FTStrategy.LOGGING: "swift_logging_pr",
    FTStrategy.CHECKPOINT_ONLY: "global_checkpoint",
}


def method_for_strategy(strategy: FTStrategy | str) -> str:
    """Map an :class:`FTStrategy` to its analytic cost-model method name.

    >>> from repro.core.strategy import FTStrategy
    >>> method_for_strategy(FTStrategy.REPLICATION)
    'swift_replication'
    """
    if isinstance(strategy, str):
        strategy = FTStrategy(strategy)
    return _STRATEGY_METHODS[strategy]


@dataclass(frozen=True)
class GoodputResult:
    """One method's outcome under one sampled trace."""

    scenario: str
    method: str
    seed: int
    #: end-to-end completion time, including every stall
    hours: float
    #: completion time had no event fired
    failure_free_hours: float
    num_crashes: int
    num_straggler_onsets: int
    num_storage_outages: int

    @property
    def goodput_fraction(self) -> float:
        """Useful fraction of the wall clock (failure-free / actual)."""
        return self.failure_free_hours / self.hours if self.hours else 0.0

    @property
    def overhead_hours(self) -> float:
        return self.hours - self.failure_free_hours


@dataclass(eq=False)
class TraceColumns(Sequence):
    """``K`` prices under ``T`` traces, held as ``(K, T)`` columns.

    What :func:`evaluate_traces` returns.  ``result[k][i]`` is price
    ``k``'s :class:`GoodputResult` under trace ``i``, built when row
    ``k`` is read; a caller that only aggregates reads the columns.
    """

    traces: tuple[FailureTrace, ...]
    methods: list[str]
    #: ``(K,)`` completion time had no event fired
    failure_free_hours: np.ndarray
    #: ``(K, T)`` end-to-end hours, including every stall, and the
    #: events each price lived to see
    hours: np.ndarray
    num_storage_outages: np.ndarray
    num_straggler_onsets: np.ndarray
    num_crashes: np.ndarray

    @property
    def goodput_fraction(self) -> np.ndarray:
        """``(K, T)`` failure-free / actual hours (0 where no time
        passed), as :attr:`GoodputResult.goodput_fraction` divides."""
        return np.divide(self.failure_free_hours[:, None], self.hours,
                         out=np.zeros_like(self.hours),
                         where=self.hours != 0)

    def __len__(self) -> int:
        return len(self.methods)

    def __getitem__(self, k: int) -> list[GoodputResult]:
        k = range(len(self))[k]  # IndexError past the end
        return [
            GoodputResult(
                scenario=trace.scenario, method=self.methods[k],
                seed=trace.seed, hours=hours,
                failure_free_hours=float(self.failure_free_hours[k]),
                num_crashes=c, num_straggler_onsets=o, num_storage_outages=s,
            )
            for trace, hours, s, o, c in zip(
                self.traces, self.hours[k].tolist(),
                self.num_storage_outages[k].tolist(),
                self.num_straggler_onsets[k].tolist(),
                self.num_crashes[k].tolist())
        ]


def evaluate_trace(
    trace: FailureTrace,
    workload: Workload,
    method: str,
    interval: int | None = None,
    cost: CostModel | None = None,
    parallel_degree: int = 16,
) -> GoodputResult:
    """End-to-end hours for ``method`` under the exact events of ``trace``.

    Deterministic: the same trace and workload always produce the same
    result (the trace carries all the randomness).  Degenerate inputs a
    config search may generate — non-positive intervals or recovery
    degrees, workloads pricing a zero iteration time — raise
    :class:`~repro.errors.ConfigurationError` rather than dividing by
    zero; single-machine traces and event-free horizons are fine.
    """
    cost = cost or CostModel(workload, use_experiment_time=False)
    pricing = cost.pricing(method, interval, parallel_degree)
    return evaluate_traces(
        (trace,), [(pricing, workload.total_iterations)])[0][0]


class _Batch:
    """K prices as columns: :meth:`walk` steps one trace for all of them,
    :meth:`charge` is ``RecoveryPrice.__call__`` elementwise."""

    def __init__(self, prices) -> None:
        prices = list(prices)
        self.pricings = [pricing for pricing, _ in prices]
        self.total = np.array([total or 10_000 for _, total in prices],
                              dtype=np.int64)
        if (self.total < 0).any():
            raise ConfigurationError(
                f"total_iterations must be >= 0, got {self.total.min()}")

        def column(name, of=self.pricings):
            return np.array([getattr(x, name) for x in of])

        self.interval = column("interval").astype(np.int64)
        self.dt_base = column("iteration_seconds").astype(float)
        self.free_hours = self.total * self.dt_base / 3600.0
        # the three lost formulas: replication's undo loses nothing,
        # in-memory snapshots persist, the rest recompute since the last
        # durable checkpoint
        methods = column("method")
        self.loses = methods != "swift_replication"
        self.snapshot = np.isin(methods, ("checkfreq", "elastic_horovod"))
        recovery = [pricing.recovery for pricing in self.pricings]
        (self.base, self.load, self.init, self.replay, self.extra, self.mb,
         self.bb, self.bw) = (
            column(name, recovery).astype(float) for name in (
                "base", "load", "init", "replay", "extra",
                "log_microbatches", "log_boundary_bytes", "log_bw"))

    def charge(self, lost: np.ndarray) -> np.ndarray:
        """Seconds each price's crash costs, every operand in the
        scalar order."""
        lost = lost.astype(float)
        return self.base + (self.load + self.init
                            + np.maximum(lost * self.replay,
                                         lost * 2.0 * self.mb * self.bb
                                         / self.bw)
                            + self.extra)

    def walk(self, trace: FailureTrace) -> tuple[np.ndarray, np.ndarray]:
        """Each price's hours under ``trace``'s events, and its outage,
        straggler-onset and crash counts (one row each)."""
        total, interval, dt_base = self.total, self.interval, self.dt_base
        elapsed, slowdown = np.zeros(len(total)), np.ones(len(total))
        dt = dt_base  # dt_base * slowdown
        completed, last_ckpt = np.zeros((2, len(total)), dtype=np.int64)
        # per price, the outages, straggler onsets and crashes it lived to
        # see (indexed by the event's rank)
        counts = np.zeros((3, len(total)), dtype=np.int64)
        outages: list[tuple[float, float]] = []  # [start, end) in seconds

        for t, rank, magnitude in trace.walk_order:
            # whole iterations until the next would cross t, in closed form
            # (int() truncation; a search horizon can map onto 10^8
            # iterations at cadence 10); a finished price fits none
            fit = np.trunc((t - elapsed) / dt)
            fit = np.maximum(np.minimum(fit, total - completed), 0.0) \
                .astype(np.int64)
            # latest interval boundary reached whose completion instant
            # falls outside every outage window (its checkpoint persisted)
            b = (completed + fit) // interval * interval
            if outages:
                _persist(b, completed, elapsed, dt, fit, interval,
                         outages, last_ckpt)
            else:
                np.copyto(last_ckpt, b, where=b > completed)
            completed += fit
            elapsed += fit * dt
            live = completed < total
            if not live.any():
                break
            # the iteration in flight at the event is charged but not counted
            np.maximum(elapsed, t, out=elapsed, where=live)
            counts[rank] += live
            if rank == 2:  # crash
                lost = np.where(self.snapshot, completed % interval,
                                completed - last_ckpt) * self.loses
                np.add(elapsed, self.charge(lost), out=elapsed, where=live)
            elif rank == 1:  # straggler; a finished price never reads dt
                slowdown = np.maximum(slowdown, magnitude)
                dt = dt_base * slowdown
            else:  # storage outage
                outages.append((t, t + magnitude * 3600.0))

        # no events remain: run the tail uninterrupted (adds 0.0 to a
        # finished price)
        elapsed = elapsed + (total - completed) * dt_base * slowdown
        return elapsed / 3600.0, counts


def _persist(b, completed, elapsed, dt, fit, interval, outages,
             last_ckpt) -> None:
    """Move ``last_ckpt`` to each price's latest boundary ``b`` whose
    checkpoint persisted, stepping back one outage at a time."""
    starts = np.array([start for start, _ in outages])
    ends = np.array([end for _, end in outages])
    todo = np.flatnonzero(b > completed)
    while todo.size:
        t_b = elapsed[todo] + (b[todo] - completed[todo]) * dt[todo]
        inside = (starts <= t_b[:, None]) & (t_b[:, None] < ends)
        hit = inside.any(axis=1)
        done = todo[~hit]
        last_ckpt[done] = b[done]  # b > completed >= last_ckpt: forward
        todo = todo[hit]
        # that checkpoint never persisted; try the last boundary
        # completed strictly before the first outage holding it began
        start = starts[inside[hit].argmax(axis=1)]
        e, d = elapsed[todo], dt[todo]
        before = np.trunc((start - e) / d)
        before -= e + before * d >= start  # truncation landed on the edge
        step = np.maximum(np.minimum(before, fit[todo]), 0.0).astype(np.int64)
        b[todo] = (completed[todo] + step) // interval[todo] * interval[todo]
        todo = todo[b[todo] > completed[todo]]


def evaluate_scenario(
    scenario: str | ScenarioSpec,
    workload: Workload,
    method: str,
    seeds=range(5),
    interval: int | None = None,
    horizon_hours: float | None = None,
    num_machines: int | None = None,
) -> list[GoodputResult]:
    """Evaluate ``method`` over freshly sampled traces of a scenario.

    One trace per seed; the horizon defaults to 1.5x the workload's
    published end-to-end hours so events keep arriving for the slower
    methods too.  Traces are sampled identically for every method
    evaluated with the same arguments — the comparison is paired.
    """
    spec = get_scenario(scenario)
    machines = num_machines or workload.num_machines
    hours = horizon_hours or max(
        spec.horizon_hours, 1.5 * (workload.end_to_end_hours or 100.0)
    )
    traces = [spec.sample(seed, machines, horizon_hours=hours)
              for seed in seeds]
    pricing = CostModel(workload, use_experiment_time=False).pricing(
        method, interval)
    return evaluate_traces(traces, [(pricing, workload.total_iterations)])[0]


def sample_paired_traces(
    scenario: str | ScenarioSpec,
    num_machines: int,
    seeds=range(5),
    horizon_hours: float | None = None,
) -> tuple[FailureTrace, ...]:
    """Pre-sample one trace per seed for paired method comparisons.

    Identical arguments always yield identical traces, so callers that
    evaluate many methods (or many plan candidates) against the same
    tuple get a genuinely paired comparison — the batch entry point the
    :mod:`repro.plan` objective is built on.

    >>> traces = sample_paired_traces("steady_mtbf", 4, seeds=range(2))
    >>> [t.seed for t in traces]
    [0, 1]
    >>> traces == sample_paired_traces("steady_mtbf", 4, seeds=range(2))
    True
    """
    if num_machines < 1:
        raise ConfigurationError(
            f"num_machines must be >= 1, got {num_machines}"
        )
    spec = get_scenario(scenario)
    hours = horizon_hours or spec.horizon_hours
    return tuple(
        spec.sample(seed, num_machines, horizon_hours=hours)
        for seed in seeds
    )


def evaluate_traces(traces, prices) -> TraceColumns:
    """Price a batch of ``(Pricing, total_iterations)`` over many traces.

    Each trace is walked once for the whole batch: the walk branches on
    the event, which every price shares, and carries each price's state
    as one column.  The result is a :class:`TraceColumns`:
    ``result[k][i]`` is price ``k`` under trace ``i``, bit for bit what a
    batch holding price ``k`` alone returns.  A
    ``total_iterations`` of ``None`` or 0 means 10 000.  Raises
    :class:`~repro.errors.ConfigurationError` on an empty batch of
    traces — a searcher bug, not a zero-goodput configuration.

    >>> from repro.sim import BERT_128, CostModel
    >>> cost = CostModel(BERT_128, use_experiment_time=False)
    >>> prices = [(cost.pricing(m), BERT_128.total_iterations)
    ...           for m in ("global_checkpoint", "swift_logging_pr")]
    >>> traces = sample_paired_traces("steady_mtbf", 16, seeds=range(2))
    >>> ckpt, logging = evaluate_traces(traces, prices)
    >>> [r.hours for r in logging] == [evaluate_trace(
    ...     t, BERT_128, "swift_logging_pr").hours for t in traces]
    True
    >>> all(a.hours > b.hours for a, b in zip(ckpt, logging))
    True
    >>> evaluate_traces(traces, prices).hours[1].tolist() == [
    ...     r.hours for r in logging]
    True
    """
    traces = tuple(traces)
    if not traces:
        raise ConfigurationError(
            "evaluate_traces needs at least one trace"
        )
    batch = _Batch(prices)
    hours, counts = zip(*(batch.walk(trace) for trace in traces))
    return TraceColumns(traces, [p.method for p in batch.pricings],
                        batch.free_hours, np.stack(hours, axis=1),
                        *np.stack(counts, axis=2))
