"""The analytic trace walk: golden results and the walk order.

``tests/traces/walk_golden.jsonl`` pins the walk of
``repro.chaos.evaluate_traces`` bit for bit.  Each row is one (trace,
workload, method) and lists, for every (interval, total) below,
``repr(hours)`` and the three event counts.  The file was written once
and the suite never regenerates it, so a walk change that moves one bit
of one result fails here.  The two benchmark scenarios contain only
crashes; this file is what gates the outage and straggler branches.
Each (trace, workload) walks as one mixed batch of every method,
interval and total, so a price that leaks into its neighbour's column
fails here too.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosEvent, FailureTrace, get_scenario
from repro.chaos.evaluate import evaluate_traces
from repro.errors import ConfigurationError
from repro.sim import BERT_128, WIDE_RESNET_50
from repro.sim.costmodel import CostModel

GOLDEN = Path(__file__).parent / "traces" / "walk_golden.jsonl"

WORKLOADS = {"WIDE_RESNET_50": WIDE_RESNET_50, "BERT_128": BERT_128}
METHODS = {
    "WIDE_RESNET_50": ("global_checkpoint", "checkfreq", "elastic_horovod",
                       "swift_replication"),
    "BERT_128": ("global_checkpoint", "swift_logging", "swift_logging_pr",
                 "swift_replication"),
}
#: the built-in catalog (tests and doctests register extra scenarios)
SCENARIOS = (
    "cascading", "demo_fleet_crashes", "drill_adjacent", "drill_cascading",
    "drill_control_plane", "drill_disjoint", "flaky_node",
    "infant_mortality", "rack_burst", "steady_mtbf", "storage_outage",
    "stragglers",
)
SEEDS = (0, 1, 2)
INTERVALS = (None, 7, 100)
#: ``None`` = the workload's published total iterations
TOTALS = (None, 1000)


def _same_instant(machines: int) -> FailureTrace:
    """A crash and a storage outage at one instant; the crash is listed
    first (lower machine id), the walk must take the outage first."""
    return FailureTrace(
        scenario="hand_same_instant", seed=0, num_machines=machines,
        horizon_hours=100.0, events=(
            ChaosEvent(time_hours=10.0, machine_id=0),
            ChaosEvent(time_hours=10.0, machine_id=1,
                       kind="storage_outage", magnitude=2.0),
            ChaosEvent(time_hours=11.0, machine_id=0),
            ChaosEvent(time_hours=30.0, machine_id=1),
        ))


def _outage_boundary(machines: int) -> FailureTrace:
    """Checkpoint boundaries that complete inside (overlapping) outage
    windows, so the walk steps back one outage at a time."""
    def outage(start, hours):
        return ChaosEvent(time_hours=start, machine_id=0,
                          kind="storage_outage", magnitude=hours)

    return FailureTrace(
        scenario="hand_outage_boundary", seed=0, num_machines=machines,
        horizon_hours=100.0, events=(
            outage(0.8, 0.4), outage(1.0, 2.0),
            ChaosEvent(time_hours=2.0, machine_id=1),
            outage(4.0, 3.0),
            ChaosEvent(time_hours=6.5, machine_id=1),
            ChaosEvent(time_hours=8.0, machine_id=0),
            ChaosEvent(time_hours=9.0, machine_id=1, kind="straggler",
                       magnitude=1.5),
            outage(10.0, 30.0),
            ChaosEvent(time_hours=39.0, machine_id=0),
        ))


HAND_BUILT = {
    "hand_same_instant": _same_instant,
    "hand_outage_boundary": _outage_boundary,
}


def _trace(scenario: str, seed: int, workload) -> FailureTrace:
    if scenario in HAND_BUILT:
        return HAND_BUILT[scenario](workload.num_machines)
    spec = get_scenario(scenario)
    hours = max(spec.horizon_hours, 1.5 * workload.end_to_end_hours)
    return spec.sample(seed, workload.num_machines, horizon_hours=hours)


def _walks(trace: FailureTrace, workload, methods) -> list[list[list]]:
    """Per method, ``[interval, total, repr(hours), crashes, onsets,
    outages]`` for every (interval, total) of the golden grid, all
    walked as one batch."""
    cost = CostModel(workload, use_experiment_time=False)
    keys = [(method, interval, total) for method in methods
            for interval in INTERVALS for total in TOTALS]
    results = evaluate_traces((trace,), [
        (cost.pricing(method, interval), total or workload.total_iterations)
        for method, interval, total in keys])
    rows = {method: [] for method in methods}
    for (method, interval, total), (r,) in zip(keys, results):
        rows[method].append([interval, total, repr(r.hours), r.num_crashes,
                             r.num_straggler_onsets, r.num_storage_outages])
    return [rows[method] for method in methods]


def _grid():
    """Every (scenario, seed, workload, method) the golden file holds."""
    for scenario in (*SCENARIOS, *HAND_BUILT):
        for seed in (SEEDS if scenario in SCENARIOS else (0,)):
            for name, methods in METHODS.items():
                for method in methods:
                    yield scenario, seed, name, method


def _golden() -> list[dict]:
    return [json.loads(line) for line in GOLDEN.read_text().splitlines()]


def test_golden_covers_the_grid():
    rows = _golden()
    assert [(r["scenario"], r["seed"], r["workload"], r["method"])
            for r in rows] == list(_grid())
    walks = [w for r in rows for w in r["walks"]]
    # the branches the benchmark scenarios never reach are exercised
    assert sum(w[4] for w in walks) > 0 and sum(w[5] for w in walks) > 0


@pytest.mark.parametrize("scenario", (*SCENARIOS, *HAND_BUILT))
def test_walk_matches_golden(scenario):
    by_trace: dict[tuple, list[dict]] = {}
    for row in _golden():
        if row["scenario"] == scenario:
            by_trace.setdefault((row["seed"], row["workload"]), []).append(row)
    assert by_trace
    for (seed, name), rows in by_trace.items():
        workload = WORKLOADS[name]
        walks = _walks(_trace(scenario, seed, workload), workload,
                       [row["method"] for row in rows])
        assert walks == [row["walks"] for row in rows], (seed, name)


def test_outage_boundary_trace_reaches_the_backward_walk():
    """Dropping the outages changes a checkpointing walk's hours: some
    boundary really completed inside a window."""
    trace = _outage_boundary(WIDE_RESNET_50.num_machines)
    crashes_only = FailureTrace(
        scenario=trace.scenario, seed=0, num_machines=trace.num_machines,
        horizon_hours=trace.horizon_hours,
        events=tuple(e for e in trace.events if e.kind != "storage_outage"))
    price = (CostModel(WIDE_RESNET_50, use_experiment_time=False)
             .pricing("global_checkpoint", 100),
             WIDE_RESNET_50.total_iterations)
    [[with_outages, without]] = evaluate_traces((trace, crashes_only),
                                                [price])
    assert with_outages.num_storage_outages == 4
    assert with_outages.hours > without.hours


#: (workload, method) pairs a batch may mix; logging needs a pipeline
PRICED = [(WORKLOADS[name], method)
          for name, methods in METHODS.items() for method in methods]


@st.composite
def _events(draw):
    """Events shaped like the hand-built traces' (crashes, stragglers,
    overlapping outages), on a coarse clock so instants tie."""
    kind = draw(st.sampled_from(("crash", "straggler", "storage_outage")))
    magnitude = {
        "crash": 0.0,
        "straggler": draw(st.sampled_from((1.0, 1.25, 1.5, 3.0))),
        "storage_outage": draw(st.sampled_from((0.25, 0.4, 2.0, 30.0))),
    }[kind]
    return ChaosEvent(time_hours=draw(st.integers(0, 80)) / 4.0,
                      machine_id=draw(st.integers(0, 3)), kind=kind,
                      magnitude=magnitude)


@st.composite
def _prices(draw):
    workload, method = draw(st.sampled_from(PRICED))
    pricing = CostModel(workload, use_experiment_time=False).pricing(
        method, draw(st.sampled_from((None, 1, 7, 100, 5000))))
    return pricing, draw(st.one_of(st.none(), st.integers(0, 10**9)))


def _bits(r):
    return (repr(r.hours), repr(r.failure_free_hours), r.num_crashes,
            r.num_straggler_onsets, r.num_storage_outages)


@settings(max_examples=60, deadline=None)
@given(events=st.lists(_events(), max_size=14),
       prices=st.lists(_prices(), min_size=2, max_size=6))
def test_key_of_a_batch_walks_as_a_batch_of_one(events, prices):
    trace = FailureTrace(scenario="drawn", seed=0, num_machines=4,
                         horizon_hours=25.0, events=tuple(events))
    batch = evaluate_traces((trace,), prices)
    for price, (r,) in zip(prices, batch):
        [[alone]] = evaluate_traces((trace,), [price])
        assert _bits(r) == _bits(alone)


def test_a_batch_of_many_traces_is_one_column_per_price():
    workload = BERT_128
    traces = [_trace(s, 0, workload) for s in ("storage_outage", "stragglers")]
    cost = CostModel(workload, use_experiment_time=False)
    prices = [(cost.pricing(m, 7), None) for m in METHODS["BERT_128"]]
    batch = evaluate_traces(traces, prices)
    assert [[r.method for r in column] for column in batch] == [
        [m] * 2 for m in METHODS["BERT_128"]]
    for trace, results in zip(traces, zip(*batch)):
        assert [_bits(r) for r in results] == [
            _bits(r) for (r,) in evaluate_traces((trace,), prices)]


def test_a_negative_total_is_rejected():
    pricing = CostModel(BERT_128, use_experiment_time=False).pricing(
        "global_checkpoint")
    with pytest.raises(ConfigurationError, match="total_iterations"):
        evaluate_traces((_same_instant(4),), [(pricing, 10), (pricing, -1)])


class TestWalkOrder:
    def test_outage_precedes_a_simultaneous_crash(self):
        trace = _same_instant(2)
        assert [e.kind for e in trace.events[:2]] == ["crash",
                                                      "storage_outage"]
        assert [(t, rank) for t, rank, _ in trace.walk_order] == [
            (36000.0, 0), (36000.0, 2), (39600.0, 2), (108000.0, 2)]

    def test_ties_break_outage_straggler_crash_then_machine(self):
        events = (
            ChaosEvent(time_hours=1.0, machine_id=0),
            ChaosEvent(time_hours=1.0, machine_id=1, kind="straggler",
                       magnitude=2.0),
            ChaosEvent(time_hours=0.5, machine_id=3, kind="straggler",
                       magnitude=1.5),
            ChaosEvent(time_hours=1.0, machine_id=2, kind="storage_outage",
                       magnitude=0.25),
        )
        trace = FailureTrace(scenario="ties", seed=0, num_machines=4,
                             horizon_hours=2.0, events=events)
        assert trace.walk_order == (
            (1800.0, 1, 1.5), (3600.0, 0, 0.25), (3600.0, 1, 2.0),
            (3600.0, 2, 0.0))

    def test_cached_without_touching_identity_or_bytes(self):
        trace = get_scenario("storage_outage").sample(0, 4)
        twin = get_scenario("storage_outage").sample(0, 4)
        before = (hash(trace), trace.to_jsonl())
        assert trace.walk_order is trace.walk_order
        assert (hash(trace), trace.to_jsonl()) == before
        assert trace == twin and hash(trace) == hash(twin)
        assert FailureTrace.from_jsonl(trace.to_jsonl()).walk_order \
            == trace.walk_order
