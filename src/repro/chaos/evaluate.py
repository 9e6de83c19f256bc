"""Analytic goodput evaluation of a fault-tolerance method under a trace.

The paper's headline comparison — replication vs logging vs global
checkpointing — was only ever simulated under uniform singleton failures
(Section 7.3).  This module walks an arbitrary
:class:`~repro.chaos.trace.FailureTrace` (correlated bursts, flaky
nodes, storage outages, stragglers) through the calibrated
:class:`~repro.sim.CostModel` and reports the end-to-end hours and
goodput fraction each method achieves.  Iterations and crashes are priced
by :meth:`CostModel.pricing <repro.sim.CostModel.pricing>` — the one
pricer :class:`~repro.sim.EndToEndSimulator` uses too — built once per
batch of traces; this module owns only the trace walk.

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
same convention as :class:`~repro.sim.EndToEndSimulator`.  It is one
flat loop over the trace's ``walk_order``, which each trace sorts once
however many prices walk it: a batch of prices pays only for pricing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chaos.scenarios import ScenarioSpec, get_scenario
from repro.chaos.trace import FailureTrace
from repro.core.strategy import FTStrategy
from repro.errors import ConfigurationError
from repro.sim.costmodel import CostModel, Pricing
from repro.sim.workloads import Workload

__all__ = [
    "GoodputResult",
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
    return evaluate_traces((trace,), workload, method, interval=interval,
                           cost=cost, parallel_degree=parallel_degree)[0]


def _walk(trace: FailureTrace, pricing: Pricing, total: int) -> GoodputResult:
    """Walk one trace's events through a resolved :class:`Pricing`."""
    method, interval = pricing.method, pricing.interval
    dt_base, recovery = pricing.iteration_seconds, pricing.recovery
    snapshot_based = method in ("checkfreq", "elastic_horovod")
    outages: list[tuple[float, float]] = []  # [start, end) in seconds

    elapsed = 0.0
    completed = 0
    last_ckpt = 0  # iteration of the last durable global checkpoint
    slowdown = 1.0
    dt = dt_base  # dt_base * slowdown, recomputed when a straggler starts
    crashes = onsets = outage_count = 0

    for t, rank, magnitude in trace.walk_order:
        if completed >= total:
            break
        # whole iterations until the next would cross t, in closed form: a
        # search horizon can map onto 10^8 iterations at cadence 10
        fit = int((t - elapsed) / dt)
        if fit > total - completed:
            fit = total - completed
        if fit < 0:
            fit = 0
        # latest interval boundary reached whose completion instant falls
        # outside every outage window (its checkpoint persisted); walk
        # backwards one outage at a time
        b = (completed + fit) // interval * interval
        while b > completed:
            t_b = elapsed + (b - completed) * dt
            for start, end in outages:
                if start <= t_b < end:
                    break
            else:
                last_ckpt = b  # b > completed >= last_ckpt: a step forward
                break
            # that checkpoint never persisted; try the last boundary
            # completed strictly before the outage began
            before = int((start - elapsed) / dt)
            if elapsed + before * dt >= start:
                before -= 1  # int() truncation landed on the edge
            b = (completed + max(0, min(before, fit))) // interval * interval
        completed += fit
        elapsed += fit * dt
        if completed >= total:
            break
        # the iteration in flight at the event is charged but not counted
        if t > elapsed:
            elapsed = t
        if rank == 2:  # crash
            crashes += 1
            if method == "swift_replication":
                lost = 0  # undo resolves the partial update; nothing lost
            elif snapshot_based:
                lost = completed % interval  # in-memory snapshots persist
            else:
                lost = completed - last_ckpt
            elapsed += recovery(lost)
        elif rank == 1:  # straggler
            onsets += 1
            if magnitude > slowdown:
                slowdown = magnitude
                dt = dt_base * slowdown
        else:  # storage outage
            outage_count += 1
            outages.append((t, t + magnitude * 3600.0))

    if completed < total:
        # no events remain: run the tail uninterrupted
        elapsed += (total - completed) * dt_base * slowdown
        completed = total

    return GoodputResult(
        scenario=trace.scenario,
        method=method,
        seed=trace.seed,
        hours=elapsed / 3600.0,
        failure_free_hours=total * dt_base / 3600.0,
        num_crashes=crashes,
        num_straggler_onsets=onsets,
        num_storage_outages=outage_count,
    )


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
    return evaluate_traces(traces, workload, method, interval=interval)


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


def evaluate_traces(
    traces,
    workload: Workload,
    method: str,
    interval: int | None = None,
    cost: CostModel | None = None,
    parallel_degree: int = 16,
) -> list[GoodputResult]:
    """Price ``method`` over many pre-sampled traces at once.

    The inputs are checked and the pricing is built once for the whole
    batch, so a search loop pays per-candidate setup a single time per
    candidate rather than per ``(candidate, seed)`` pair, and each crash
    costs one call.  Raises
    :class:`~repro.errors.ConfigurationError` on an empty batch — a
    searcher bug, not a zero-goodput configuration.

    >>> from repro.sim import BERT_128
    >>> traces = sample_paired_traces("steady_mtbf", 16, seeds=range(2))
    >>> results = evaluate_traces(traces, BERT_128, "swift_logging_pr")
    >>> [round(r.goodput_fraction, 3) == round(
    ...     evaluate_trace(t, BERT_128, "swift_logging_pr")
    ...     .goodput_fraction, 3) for t, r in zip(traces, results)]
    [True, True]
    """
    traces = tuple(traces)
    if not traces:
        raise ConfigurationError(
            "evaluate_traces needs at least one trace"
        )
    cost = cost or CostModel(workload, use_experiment_time=False)
    pricing = cost.pricing(method, interval, parallel_degree)
    total = workload.total_iterations or 10_000
    if total < 0:
        raise ConfigurationError(
            f"total_iterations must be >= 0, got {total}"
        )
    return [_walk(trace, pricing, total) for trace in traces]
