"""The analytic trace walk: golden results and the walk order.

``tests/traces/walk_golden.jsonl`` pins ``repro.chaos.evaluate._walk``
bit for bit.  Each row is one (trace, workload, method) and lists, for
every (interval, total) below, ``repr(hours)`` and the three event
counts.  The file was written once and the suite never regenerates it,
so a walk change that moves one bit of one result fails here.  The two
benchmark scenarios contain only crashes; this file is what gates the
outage and straggler branches.
"""

import json
from pathlib import Path

import pytest

from repro.chaos import ChaosEvent, FailureTrace, get_scenario
from repro.chaos.evaluate import _walk
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


def _walks(trace: FailureTrace, workload, method: str) -> list[list]:
    """``[interval, total, repr(hours), crashes, onsets, outages]`` for
    every (interval, total) of the golden grid."""
    cost = CostModel(workload, use_experiment_time=False)
    rows = []
    for interval in INTERVALS:
        pricing = cost.pricing(method, interval)
        for total in TOTALS:
            r = _walk(trace, pricing, total or workload.total_iterations)
            rows.append([interval, total, repr(r.hours), r.num_crashes,
                         r.num_straggler_onsets, r.num_storage_outages])
    return rows


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
    for row in _golden():
        if row["scenario"] != scenario:
            continue
        workload = WORKLOADS[row["workload"]]
        trace = _trace(scenario, row["seed"], workload)
        assert _walks(trace, workload, row["method"]) == row["walks"], (
            row["seed"], row["workload"], row["method"])


def test_outage_boundary_trace_reaches_the_backward_walk():
    """Dropping the outages changes a checkpointing walk's hours: some
    boundary really completed inside a window."""
    trace = _outage_boundary(WIDE_RESNET_50.num_machines)
    crashes_only = FailureTrace(
        scenario=trace.scenario, seed=0, num_machines=trace.num_machines,
        horizon_hours=trace.horizon_hours,
        events=tuple(e for e in trace.events if e.kind != "storage_outage"))
    pricing = CostModel(WIDE_RESNET_50, use_experiment_time=False) \
        .pricing("global_checkpoint", 100)
    total = WIDE_RESNET_50.total_iterations
    with_outages = _walk(trace, pricing, total)
    assert with_outages.num_storage_outages == 4
    assert with_outages.hours > _walk(crashes_only, pricing, total).hours


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
