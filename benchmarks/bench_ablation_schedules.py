"""Ablation: 1F1B vs GPipe vs interleaved 1F1B (the Section 2.1 choice).

The paper adopts 1F1B because it has the same bubble ratio as GPipe but
lower peak memory.  This benchmark quantifies both sides across pipeline
shapes, plus the bubble time that Swift's logging exploits, and adds the
interleaved-1F1B column: with ``v`` virtual stages per worker the
warm-up bubble shrinks by ``1/v`` at the price of more in-flight
micro-batch state.

The second table is what a failure costs under each schedule: the same
PP-4 run loses a middle machine mid-iteration and recovers by logging
replay (one or two recovery workers) or by global checkpoint restart.
Replay re-runs the failed worker's own instruction stream, so the
interleaved rows exercise exactly the path ``bench/`` has no workload
for — and keep a measured number on ``GlobalCheckpointRecovery`` under
interleaving.
"""

import time

import numpy as np

from _common import emit, fmt_table
from repro.api import (
    ClusterSpec,
    DataSpec,
    Experiment,
    FaultToleranceSpec,
    ModelSpec,
    ParallelismSpec,
)
from repro.cluster import FailureEvent, FailurePhase, FailureSchedule
from repro.parallel import bubble_ratio, build_program, simulate_program

SHAPES = [(4, 4), (4, 16), (8, 8), (8, 32), (16, 16)]

#: virtual stages per worker for the interleaved column
VIRTUAL = 2


def simulate(p: int, m: int):
    return tuple(
        simulate_program(build_program(name, p, m, v), [1.0] * p, [2.0] * p)
        for name, v in (("1f1b", 1), ("gpipe", 1),
                        ("interleaved_1f1b", VIRTUAL))
    )


def compute():
    rows = []
    for p, m in SHAPES:
        a, b, c = simulate(p, m)
        rows.append([
            f"p={p}, m={m}",
            f"{bubble_ratio(p, m):.3f}",
            f"{a.iteration_time:.0f}",
            f"{b.iteration_time:.0f}",
            f"{c.iteration_time:.0f}",
            max(a.max_in_flight),
            max(b.max_in_flight),
            max(c.max_in_flight),
            f"{sum(a.stage_bubble) / p:.1f}",
            f"{sum(c.stage_bubble) / p:.1f}",
        ])
    return rows


def test_ablation_schedules(benchmark):
    rows = benchmark(compute)
    emit(
        "ablation_schedules",
        fmt_table(
            ["pipeline", "bubble ratio", "1F1B span", "GPipe span",
             f"interleaved(v={VIRTUAL}) span",
             "1F1B peak in-flight", "GPipe peak in-flight",
             "interleaved peak in-flight",
             "avg bubble/stage (logging budget)",
             "interleaved bubble/stage"],
            rows,
        ),
    )
    for p, m in SHAPES:
        a, b, c = simulate(p, m)
        # same span (same bubble ratio) ...
        assert abs(a.iteration_time - b.iteration_time) < 1e-9
        # ... but 1F1B bounds in-flight micro-batches by p, GPipe by m
        assert max(a.max_in_flight) <= p
        assert max(b.max_in_flight) == m
        if m > p:
            assert max(a.max_in_flight) < max(b.max_in_flight)
        # interleaving shortens the warm-up bubble: v chunks of 1/v cost
        # fill the pipeline v times faster, so both span and per-stage
        # bubble drop below the flat schedules
        assert c.iteration_time < a.iteration_time
        assert sum(c.stage_bubble) < sum(a.stage_bubble)


# -- recovery cost per schedule ----------------------------------------------

#: (label, schedule, strategy, parallel recovery degree)
RECOVERY_CASES = [
    ("1f1b / logging d=1", "1f1b", "logging", 1),
    (f"interleaved(v={VIRTUAL}) / logging d=1", "interleaved_1f1b",
     "logging", 1),
    (f"interleaved(v={VIRTUAL}) / logging d=2", "interleaved_1f1b",
     "logging", 2),
    (f"interleaved(v={VIRTUAL}) / checkpoint_only", "interleaved_1f1b",
     "checkpoint_only", 1),
]
ITERATIONS, CHECKPOINT_EVERY, FAIL_AT, FAILED_MACHINE = 24, 10, 17, 1


def recovery_session(schedule: str, strategy: str, degree: int):
    return Experiment(
        model=ModelSpec(family="mlp", dim=16, hidden_dim=64, depth=8,
                        num_classes=8, optimizer="adam"),
        data=DataSpec(batch_size=32),
        cluster=ClusterSpec(num_machines=4, devices_per_machine=1),
        parallelism=ParallelismSpec(kind="pp", num_workers=4,
                                    num_microbatches=8, schedule=schedule),
        fault_tolerance=FaultToleranceSpec(
            strategy=strategy, checkpoint_interval=CHECKPOINT_EVERY,
            parallel_recovery_degree=degree),
    ).build()


def flat_state(session) -> dict[str, np.ndarray]:
    return {f"{sid}/{key}": value
            for sid, state in session.engine.full_state().items()
            for key, value in state.items()}


def run_recovery_case(schedule: str, strategy: str, degree: int) -> dict:
    """Fail a middle machine mid-iteration; cost = failure until the run
    is back at the iteration it lost (replay, or rollback + re-execution)."""
    session = recovery_session(schedule, strategy, degree)
    log_bytes_read = 0
    tlog = session.trainer.tlog
    if tlog is not None:
        query = tlog.query

        def counting_query(*key):
            nonlocal log_bytes_read
            record = query(*key)
            log_bytes_read += record.nbytes
            return record

        tlog.query = counting_query
    failures = FailureSchedule(
        [FailureEvent(FAILED_MACHINE, FAIL_AT, FailurePhase.BACKWARD)])
    wall = sim = 0.0
    while session.engine.iteration < ITERATIONS:
        t0, s0 = time.perf_counter(), session.clock.now
        session.step(failures)
        # the failing step, and every step that has not got past FAIL_AT
        if session.trace.recoveries and session.engine.iteration <= FAIL_AT:
            wall += time.perf_counter() - t0
            sim += session.clock.now - s0
    [report] = session.trace.recoveries
    return {
        "strategy": report.strategy,
        "lost_iterations": report.lost_iterations,
        "sim_recovery_s": sim,
        # net of detection and the replacement's join: what the strategy
        # itself decides (logging also pays its 1 s re-initialisation)
        "sim_redo_s": sim - report.detection_time - report.init_time,
        "wall_ms": wall * 1e3,
        "log_bytes_read": log_bytes_read,
        "state": flat_state(session),
    }


def test_ablation_schedule_recovery():
    reference = {}
    for schedule in {case[1] for case in RECOVERY_CASES}:
        session = recovery_session(schedule, "checkpoint_only", 1)
        session.run(ITERATIONS)
        reference[schedule] = flat_state(session)
    results = {label: run_recovery_case(schedule, strategy, degree)
               for label, schedule, strategy, degree in RECOVERY_CASES}
    emit(
        "ablation_schedules_recovery",
        fmt_table(
            ["schedule / recovery", "report", "lost iterations",
             "sim recovery (s)", "of which redo (s)", "wall (ms)",
             "log bytes read"],
            [[label, r["strategy"], r["lost_iterations"],
              f"{r['sim_recovery_s']:.3f}", f"{r['sim_redo_s']:.3f}",
              f"{r['wall_ms']:.1f}", r["log_bytes_read"]]
             for label, r in results.items()],
        ),
    )
    flat, inter, inter_pr, restart = results.values()
    for (label, schedule, _, degree), r in zip(RECOVERY_CASES,
                                               results.values()):
        want = reference[schedule]
        assert r["lost_iterations"] == FAIL_AT - CHECKPOINT_EVERY, label
        if degree == 1:  # exact: replay and restart alike
            assert all(np.array_equal(want[k], r["state"][k]) for k in want)
        else:  # bucket sums re-associate the micro-batch order
            assert all(np.allclose(want[k], r["state"][k], atol=1e-7)
                       for k in want)
    # two chunks on the failed worker = twice the boundary tensors to read
    assert inter["log_bytes_read"] == VIRTUAL * flat["log_bytes_read"] > 0
    assert restart["log_bytes_read"] == 0
    # what logging buys under interleaving: only the failed worker redoes
    # its share, without bubbles; restart re-runs every stage's iterations
    assert inter["sim_redo_s"] < restart["sim_redo_s"]
    assert inter_pr["sim_redo_s"] < inter["sim_redo_s"]
