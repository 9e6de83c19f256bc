"""Observability overhead: the null recorder must be (nearly) free.

The hot paths (DP/PP/FSDP engines, SwiftTrainer) are permanently
instrumented with ``recorder.span(...)`` call sites.  The contract of
:mod:`repro.obs` is that the default :class:`NullRecorder` keeps those
call sites within a <2% overhead budget on the DP-8 training step
and perturbs numerics not at all.  This benchmark gates both halves:

* **overhead** — microbenches the cost of one null ``span()`` enter/exit
  (plus the ``count``/``gauge`` no-ops), counts how many recorder calls
  one instrumented DP-8 trainer iteration actually makes (by
  recording one with a ``TraceRecorder``), and divides the injected cost
  by the measured iteration time.  Fails if the fraction exceeds
  ``--max-overhead`` (default 0.02);
* **equivalence** — trains the same DP-8 workload three ways (no
  recorder, ``NullRecorder``, ``TraceRecorder``) through failures and
  asserts bitwise-identical losses, iteration times, and final replica
  states.

Run::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py [--quick]
        [--max-overhead 0.02]

Writes ``BENCH_obs_overhead.json`` at the repo root and exits non-zero
if the overhead gate or any equivalence check fails.
"""

from __future__ import annotations

import argparse
import sys
import time

from _common import emit, fmt_table, write_bench_json
from bench_step import best_of, make_dp8
from repro.cluster import FailureEvent, FailurePhase, FailureSchedule
from repro.core import SwiftTrainer, TrainerConfig
from repro.obs import NULL_RECORDER, NullRecorder, TraceRecorder
from repro.utils import state_equal


def bench_null_call_cost(calls: int) -> dict:
    """Per-call cost of the null recorder's span/count/gauge no-ops."""
    rec = NULL_RECORDER

    def spans():
        for _ in range(calls):
            with rec.span("bench/noop"):
                pass

    def counts():
        for _ in range(calls):
            rec.count("bench/noop")

    def gauges():
        for _ in range(calls):
            rec.gauge("bench/noop", 1.0)

    def baseline():  # loop + pass: what the timing harness itself costs
        for _ in range(calls):
            pass

    base_s = best_of(baseline)
    span_s = max(0.0, best_of(spans) - base_s)
    count_s = max(0.0, best_of(counts) - base_s)
    gauge_s = max(0.0, best_of(gauges) - base_s)
    return {
        "calls": calls,
        "span_ns": span_s / calls * 1e9,
        "count_ns": count_s / calls * 1e9,
        "gauge_ns": gauge_s / calls * 1e9,
    }


def count_recorder_calls(quick: bool) -> dict:
    """Recorder calls one instrumented DP-8 trainer iteration makes."""
    eng = make_dp8(quick=quick)
    rec = TraceRecorder()
    trainer = SwiftTrainer(
        eng, TrainerConfig(checkpoint_interval=1000,
                           checkpoint_at_start=False),
        recorder=rec,
    )
    iters = 4
    trainer.train(iters)
    events = rec.events
    spans = sum(1 for e in events if e.kind == "span")
    others = len(events) - spans
    return {
        "iterations": iters,
        "spans_per_iteration": spans / iters,
        "other_calls_per_iteration": others / iters,
    }


def bench_fused_iteration(quick: bool) -> dict:
    """Wall time of one DP-8 fused iteration under the null recorder."""
    iters = 8 if quick else 15
    eng = make_dp8(quick=quick)
    for _ in range(3):
        eng.run_iteration()

    def run():
        for _ in range(iters):
            eng.run_iteration()

    total = best_of(run)
    return {"iterations": iters, "s_per_iter": total / iters}


def check_equivalence(quick: bool) -> dict:
    """Recorded and unrecorded runs must be bitwise identical."""
    iters = 6 if quick else 10
    failures = FailureSchedule([
        FailureEvent(iteration=2, machine_id=1, phase=FailurePhase.FORWARD),
    ])

    def run(recorder):
        eng = make_dp8(quick=quick)
        trainer = SwiftTrainer(
            eng, TrainerConfig(checkpoint_interval=4), recorder=recorder,
        )
        trace = trainer.train(iters, failures=failures)
        states = {w.rank: w.full_state() for w in eng.workers}
        return trace, states

    plain_trace, plain_states = run(None)
    null_trace, null_states = run(NullRecorder())
    rec_trace, rec_states = run(TraceRecorder())
    losses_equal = (
        plain_trace.losses == null_trace.losses == rec_trace.losses
    )
    times_equal = (
        plain_trace.iteration_times == null_trace.iteration_times
        == rec_trace.iteration_times
    )
    states_equal = all(
        state_equal(plain_states[r], null_states[r])
        and state_equal(plain_states[r], rec_states[r])
        for r in plain_states
    )
    return {
        "iterations": iters,
        "losses_bitwise": bool(losses_equal),
        "iteration_times_bitwise": bool(times_equal),
        "final_states_bitwise": bool(states_equal),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small sizes for CI smoke runs")
    parser.add_argument("--max-overhead", type=float, default=0.02,
                        help="fail if the null-recorder overhead fraction "
                             "on the DP-8 fused step exceeds this")
    args = parser.parse_args(argv)

    calls = 20_000 if args.quick else 100_000
    null_cost = bench_null_call_cost(calls)
    call_mix = count_recorder_calls(args.quick)
    step = bench_fused_iteration(args.quick)
    equivalence = check_equivalence(args.quick)

    # worst-case injected cost: every recorder call priced as a full
    # span enter/exit (counts and gauges are cheaper)
    per_call_s = null_cost["span_ns"] * 1e-9
    calls_per_iter = (
        call_mix["spans_per_iteration"]
        + call_mix["other_calls_per_iteration"]
    )
    injected_s = calls_per_iter * per_call_s
    overhead = injected_s / step["s_per_iter"]

    rows = [
        ["null span enter/exit", f"{null_cost['span_ns']:.0f}ns"],
        ["recorder calls / iteration", f"{calls_per_iter:.1f}"],
        ["DP-8 fused iteration", f"{step['s_per_iter'] * 1e3:.2f}ms"],
        ["null-recorder overhead", f"{overhead:.4%}"],
        ["budget", f"{args.max_overhead:.2%}"],
    ]
    emit("obs_overhead", fmt_table(["metric", "value"], rows)
         + "\n\nequivalence: " + ", ".join(
             f"{k}={v}" for k, v in equivalence.items()))

    results = {
        "quick": args.quick,
        "null_call_cost": null_cost,
        "recorder_calls": call_mix,
        "fused_step": step,
        "overhead_fraction": overhead,
        "max_overhead": args.max_overhead,
        "equivalence": equivalence,
    }
    write_bench_json("obs_overhead", results)

    failures = []
    if overhead > args.max_overhead:
        failures.append(
            f"null-recorder overhead {overhead:.4%} exceeds the "
            f"{args.max_overhead:.2%} budget"
        )
    if not all(v for k, v in equivalence.items() if k != "iterations"):
        failures.append(f"recorded-run equivalence violated: {equivalence}")
    for msg in failures:
        print(f"[bench] FAIL: {msg}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
