"""Fused flat-buffer training step: the DP iteration.

Measures the wall-clock win of the flat-arena training step against the
per-parameter reference the tests keep (``tests/optim_oracle.py``):

* **DP-8 iteration** — one synchronous data-parallel iteration on 8
  replicas: per-parameter all-reduce + one per-parameter reference update
  on every replica (eager, ``EagerDataParallelEngine``) vs the engine's
  one all-reduce over the flat gradient arena + one vectorized
  canonical-replica update shared to the other replicas through COW
  views (fused).

Every speedup claim is paired with bitwise equality checks
(``state_equal``): the fused engine and the per-parameter reference must
produce identical replica states after plain training, after MID_UPDATE
crashes (uniform and heterogeneous survivor progress), after update-undo
consumes those crash states, after full replication recovery, and after
logging-based replay (every pipeline stage stepping per parameter).

Run::

    PYTHONPATH=src python benchmarks/bench_step.py [--quick]
        [--min-speedup 1.5]

Writes ``BENCH_step.json`` at the repo root and exits non-zero if the
speedup regresses below its floor or any equivalence check fails.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from _common import emit, fmt_table, write_bench_json
from repro.cluster import Cluster, FailureEvent, FailurePhase, FailureSchedule
from repro.core import SwiftTrainer, TrainerConfig
from repro.core.undo import resolve_dp_consistency
from repro.data import ClassificationTask
from repro.models import make_mlp
from repro.nn import CrossEntropyLoss
from repro.optim import Adam
from repro.parallel import (
    DataParallelEngine,
    PipelineEngine,
    build_program,
    default_virtual_stages,
    simulate_program,
)
from repro.utils import state_equal

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from optim_oracle import (  # noqa: E402  (the tests' per-parameter reference)
    EagerDataParallelEngine,
    eager_pipeline_steps,
)


def best_of(fn, repeats: int = 3) -> float:
    """Minimum wall time of ``fn`` over ``repeats`` runs (noise floor)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


# ---------------------------------------------------------------------------
# 1. DP-8 iteration: per-parameter reduce+update vs fused canonical update
# ---------------------------------------------------------------------------

def make_dp8(quick: bool, seed: int = 11,
             fused: bool = True) -> DataParallelEngine:
    """The DP-8 Adam MLP; ``fused=False`` builds the per-parameter
    reference engine of ``tests/optim_oracle.py`` instead."""
    depth, hidden = (6, 192) if quick else (8, 384)
    cluster = Cluster(4, devices_per_machine=2)
    placement = [(m, d) for m in range(4) for d in range(2)]
    task = ClassificationTask(dim=16, num_classes=8, batch_size=16, seed=3)
    engine_cls = DataParallelEngine if fused else EagerDataParallelEngine
    return engine_cls(
        cluster,
        model_factory=lambda: make_mlp(16, hidden, 8, depth=depth, seed=seed),
        opt_factory=lambda m: Adam(m, lr=1e-3, weight_decay=1e-4),
        loss_factory=CrossEntropyLoss,
        task=task,
        placement=placement,
    )


def bench_dp_iteration(quick: bool) -> dict:
    iters = 8 if quick else 15
    results = {}
    for tag, fused in (("eager", False), ("fused", True)):
        eng = make_dp8(quick, fused=fused)
        for _ in range(3):  # warmup: arenas allocate, COW sharing engages
            eng.run_iteration()

        def run(eng=eng):
            for _ in range(iters):
                eng.run_iteration()

        results[tag] = best_of(run)
    state_mb = make_dp8(quick).state_nbytes() / 1e6
    return {
        "workers": 8,
        "state_mb": round(state_mb, 2),
        "iterations": iters,
        "eager_s": results["eager"],
        "fused_s": results["fused"],
        "eager_ms_per_iter": results["eager"] / iters * 1e3,
        "fused_ms_per_iter": results["fused"] / iters * 1e3,
        "speedup": results["eager"] / results["fused"],
    }


# ---------------------------------------------------------------------------
# 2. schedule programs: bubble time across gpipe / 1f1b / interleaved-1f1b
# ---------------------------------------------------------------------------

#: (fwd, bwd, comm) seconds per full stage — the Fig. 8 cost model
SCHED_FWD, SCHED_BWD, SCHED_COMM = 1.0, 2.0, 0.05

SCHED_SHAPES_QUICK = [(2, 4), (4, 8)]
SCHED_SHAPES_FULL = [(2, 4), (4, 8), (4, 16), (8, 16), (8, 32)]

SCHEDULES = ("gpipe", "1f1b", "interleaved_1f1b")


def bench_schedules(quick: bool) -> dict:
    """Price every registered schedule program across pipeline shapes.

    The Fig. 8 / Table 5 sweep extended over the schedule dimension:
    each (schedule, p, m) cell is lowered to its instruction stream with
    :func:`build_program` and priced by :func:`simulate_program` under
    the shared cost model, so the numbers here are exactly what
    ``ExecutionPlan`` and ``repro.plan`` see when they search over
    schedules.  Interleaved 1F1B divides the warm-up bubble by the
    virtual-stage count, which is the property the gate in ``main``
    pins: at ``m >= 2p`` its per-iteration bubble must beat GPipe's.
    """
    shapes = SCHED_SHAPES_QUICK if quick else SCHED_SHAPES_FULL
    rows = []
    for p, m in shapes:
        for name in SCHEDULES:
            v = default_virtual_stages(name)
            if v > 1 and m % p != 0:
                continue  # interleaving needs m divisible by p
            program = build_program(name, p, m, v)
            timing = simulate_program(
                program, [SCHED_FWD] * p, [SCHED_BWD] * p, SCHED_COMM
            )
            rows.append({
                "schedule": name,
                "num_stages": p,
                "num_microbatches": m,
                "virtual_stages": v,
                "num_instructions": program.num_instructions,
                "iteration_time": timing.iteration_time,
                "bubble_time": sum(timing.stage_bubble) / p,
                "peak_in_flight": max(timing.max_in_flight),
            })
    return {
        "fwd_time": SCHED_FWD,
        "bwd_time": SCHED_BWD,
        "comm_time": SCHED_COMM,
        "rows": rows,
    }


def schedule_gate_failures(schedules: dict) -> list[str]:
    """The bench-smoke schedule gate: interleaved beats GPipe at m >= 2p.

    Checked on every shape the sweep covers with ``m >= 2p`` so a
    regression in either the interleaved generator or the program
    simulator fails CI rather than silently shipping a worse plan.
    """
    by_key = {
        (r["schedule"], r["num_stages"], r["num_microbatches"]): r
        for r in schedules["rows"]
    }
    failures = []
    checked = 0
    for (name, p, m), row in by_key.items():
        if name != "interleaved_1f1b" or m < 2 * p:
            continue
        gpipe = by_key.get(("gpipe", p, m))
        if gpipe is None:
            continue
        checked += 1
        if not row["bubble_time"] < gpipe["bubble_time"]:
            failures.append(
                f"interleaved_1f1b bubble {row['bubble_time']:.2f}s is not "
                f"below gpipe {gpipe['bubble_time']:.2f}s at p={p}, m={m}"
            )
    if checked == 0:
        failures.append("schedule gate never ran: no m >= 2p shape in sweep")
    return failures


# ---------------------------------------------------------------------------
# 4. equivalence: the fused engine and the per-parameter reference agree
# ---------------------------------------------------------------------------

def worker_states(eng: DataParallelEngine) -> dict[int, dict[str, np.ndarray]]:
    return {w.rank: w.full_state() for w in eng.workers}


def states_bitwise(a: dict, b: dict) -> bool:
    return all(state_equal(a[r], b[r]) for r in a)


def check_equivalence(quick: bool) -> dict:
    iters = 6 if quick else 10

    # -- plain training ---------------------------------------------------
    def run_plain(fused: bool):
        eng = make_dp8(quick=True, fused=fused)
        for _ in range(iters):
            eng.run_iteration()
        return eng

    fused_eng, eager_eng = run_plain(True), run_plain(False)
    train_bitwise = states_bitwise(worker_states(fused_eng),
                                   worker_states(eager_eng))

    # -- MID_UPDATE crash states, then the update-undo that consumes them:
    #    heterogeneous survivor progress privatizes every replica, one
    #    budget for all keeps them sharing an arena updated and undone once
    def run_crash(fused: bool, progress: dict[int, int] | None):
        eng = make_dp8(quick=True, fused=fused)
        for _ in range(3):
            eng.run_iteration()
        eng.run_iteration(
            failure=FailureEvent(1, 3, FailurePhase.MID_UPDATE,
                                 after_updates=3),
            survivor_progress=progress,
        )
        return eng

    def live_states(eng: DataParallelEngine) -> dict:
        # a dead follower reads the undone shared arena; an eager dead
        # replica keeps its crash state — both are retired, not undone
        return {w.rank: w.full_state() for w in eng.alive_workers()}

    crash = {}
    for prefix, progress, undone_states in (
        ("", {0: 1, 1: 5, 2: 2, 3: 7}, worker_states),
        ("uniform_", None, live_states),
    ):
        fc, ec = run_crash(True, progress), run_crash(False, progress)
        crash[f"{prefix}crash_state_bitwise"] = states_bitwise(
            worker_states(fc), worker_states(ec))
        crash[f"{prefix}crash_marks_equal"] = all(
            wf.updated_params == we.updated_params
            for wf, we in zip(fc.workers, ec.workers)
        )
        resolve_dp_consistency(fc)
        resolve_dp_consistency(ec)
        crash[f"{prefix}undo_state_bitwise"] = states_bitwise(
            undone_states(fc), undone_states(ec))

    # -- full replication recovery through SwiftTrainer --------------------
    def run_recovery(fused: bool):
        eng = make_dp8(quick=True, fused=fused)
        trainer = SwiftTrainer(eng, TrainerConfig(checkpoint_interval=8))
        trainer.train(iters + 4, failures=FailureSchedule([
            FailureEvent(2, iters, FailurePhase.MID_UPDATE, after_updates=2)
        ]))
        return worker_states(eng)

    recovery_bitwise = states_bitwise(run_recovery(True), run_recovery(False))

    # -- logging replay after a crash: flat vs per-parameter stage updates -
    def run_replay():
        cluster = Cluster(4, devices_per_machine=1)
        task = ClassificationTask(dim=8, num_classes=4, batch_size=16, seed=3)
        eng = PipelineEngine(
            cluster,
            model_factory=lambda: make_mlp(8, 16, 4, depth=3, seed=7),
            partition_sizes=[2, 2, 2, 1],
            placement=[(s, 0) for s in range(4)],
            num_microbatches=4,
            opt_factory=lambda m: Adam(m, lr=0.01, weight_decay=1e-4),
            loss_factory=CrossEntropyLoss,
            task=task,
        )
        trainer = SwiftTrainer(
            eng, TrainerConfig(checkpoint_interval=8, parallel_recovery_degree=2)
        )
        trainer.train(12, failures=FailureSchedule(
            [FailureEvent(2, 9, FailurePhase.ITERATION_START)]
        ))
        return {sid: s.full_state() for sid, s in enumerate(eng.stages)}

    fused_replay = run_replay()
    with eager_pipeline_steps():
        replay_bitwise = states_bitwise(fused_replay, run_replay())

    return {
        "train_bitwise": bool(train_bitwise),
        **{k: bool(v) for k, v in crash.items()},
        "recovery_bitwise": bool(recovery_bitwise),
        "replay_bitwise": bool(replay_bitwise),
    }


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small sizes for CI smoke runs")
    parser.add_argument("--min-speedup", type=float, default=1.5,
                        help="fail if the DP iteration speedup drops below")
    args = parser.parse_args(argv)

    dp = bench_dp_iteration(args.quick)
    schedules = bench_schedules(args.quick)
    equivalence = check_equivalence(args.quick)

    rows = [
        ["DP-8 iteration", f"{dp['eager_ms_per_iter']:.2f}ms",
         f"{dp['fused_ms_per_iter']:.2f}ms", f"{dp['speedup']:.1f}x"],
    ]
    sched_rows = [
        [r["schedule"], f"p={r['num_stages']}, m={r['num_microbatches']}",
         r["virtual_stages"], f"{r['iteration_time']:.2f}s",
         f"{r['bubble_time']:.2f}s", r["peak_in_flight"]]
        for r in schedules["rows"]
    ]
    emit("step", fmt_table(
        ["path", "per-parameter", "fused flat", "speedup"], rows
    ) + "\n\n" + fmt_table(
        ["schedule", "pipeline", "v", "span", "bubble/stage", "peak in-flight"],
        sched_rows,
    ) + "\n\nequivalence: " + ", ".join(
        f"{k}={v}" for k, v in equivalence.items()
    ))

    results = {
        "quick": args.quick,
        "dp_iteration": dp,
        "schedules": schedules,
        "equivalence": equivalence,
    }
    write_bench_json("step", results)

    failures = schedule_gate_failures(schedules)
    if not all(equivalence.values()):
        failures.append(f"fused/eager equivalence violated: {equivalence}")
    if dp["speedup"] < args.min_speedup:
        failures.append(
            f"DP iteration speedup {dp['speedup']:.2f}x < {args.min_speedup}x"
        )
    for msg in failures:
        print(f"[bench] FAIL: {msg}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
