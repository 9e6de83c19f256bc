#!/usr/bin/env python3
"""The repo's benchmark: ``python3 bench/run.py``.

Two ways to call it:

``--workload NAME --seed N --seconds S --trace 0|1``
    one run of one workload.  Human-readable metric lines first, then
    one JSON object as the last line of standard output (``correct``,
    ``attempted``, ``failed``, ``metrics``): the end-to-end metrics with
    ``--trace 0``, the per-layer metrics with ``--trace 1``.

no ``--workload``
    every workload in its own process (``--runs N`` times each, seeds
    ``seed .. seed+N-1``), a table of every metric with its unit, and a
    result file for ``bench/compare.py`` (``--out``, default
    ``bench/out/result.json``).  ``--trace 1`` adds the traced pass.

Exits non-zero when any oracle fails.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

# BLAS worker threads fight the benchmark's own two threads for two cores
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

def _pin_allocator() -> None:
    """Keep freed arrays inside the process instead of returning them.

    glibc hands big blocks back to the kernel and maps fresh pages for the
    next checkpoint; in a VM the first touch of those pages costs far more
    than the copy (a DP-8 checkpoint step measured 90 ms to 1.5 s on
    identical work).  The benchmark measures the program, so it reuses.
    """
    import ctypes

    try:
        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt(-1, 2**31 - 1)  # M_TRIM_THRESHOLD
        libc.mallopt(-3, 2**25)      # M_MMAP_THRESHOLD (the maximum)
    except (OSError, AttributeError):
        pass  # not glibc: nothing to pin


BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

_clock = time.perf_counter
_import_start = _clock()
from bench import catalog, stats  # noqa: E402
from bench.plan import PlanWorkload  # noqa: E402
from bench.serve import ServeWorkload  # noqa: E402
from bench.spans import SpanLog  # noqa: E402
from bench.train import TrainWorkload  # noqa: E402
from bench.workload import BenchTimeout, Deadline, Round  # noqa: E402

#: wall seconds this process took to import numpy, ``repro`` and the
#: harness: every process pays it once, so it is part of ``setup_s``
IMPORT_S = _clock() - _import_start
#: fresh interpreters timed on top of that, so ``setup_s`` does not hang
#: on one sample
IMPORT_SAMPLES = 2
_IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
    "import bench.plan, bench.serve, bench.train; "
    "print(time.perf_counter() - t)"
)

OUT = BENCH / "out"
HISTORY = BENCH / "history.jsonl"
#: a run must end well inside the driver's 180 s limit
WORKLOAD_TIMEOUT_S = 150.0

KINDS = {
    "dp8_replication_undo": TrainWorkload,
    "pp4_logging_replay": TrainWorkload,
    "pp4_interleaved_restart": TrainWorkload,
    "serve_steady_flat": ServeWorkload,
    "serve_burst_segmented": ServeWorkload,
    "autoplan_exhaustive": PlanWorkload,
}
UNITS = {n: u for n, u, *_ in catalog.END_TO_END + catalog.PER_LAYER}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full") -> dict:
    """One run: a discarded cold round, then rounds for ``seconds``."""
    deadline = Deadline(WORKLOAD_TIMEOUT_S)
    workload = KINDS[name](name, seed, scale, deadline)
    min_rounds = 2 if scale == "tiny" else 3
    plain: list[Round] = []
    traced: list[Round] = []
    cold = None
    errors: list[str] = []
    try:
        cold = workload.cold_round()
        start = _clock()
        while True:
            if trace:
                log = SpanLog(f"{name}/seed{seed}/round{len(traced)}")
                traced.append(workload.round(log))
            plain.append(workload.round(None))
            elapsed = _clock() - start
            if (len(plain) >= min_rounds
                    and elapsed + 0.5 * elapsed / len(plain) >= seconds):
                break
        extras = workload.extras() if trace else {}
    except BenchTimeout as exc:
        errors.append(f"timeout: {exc}")
        extras = {}

    rounds = plain + traced
    attempted = sum(r.attempted for r in rounds) + (cold.attempted if cold else 0)
    errors += [e for r in rounds for e in r.errors]
    # every round of a run does identical work: results and exact counts
    # must agree bit for bit
    checks = [("results", {r.digest for r in rounds})]
    for key in sorted({k for r in rounds for k in r.exact}):
        checks.append((key, {r.exact[key] for r in rounds if key in r.exact}))
    for what, seen in checks:
        attempted += 1
        if len(seen) > 1:
            errors.append(f"{what} differ between rounds: {sorted(seen)[:3]}")
    attempted = max(1, attempted)

    layers = {}
    if trace:
        metrics = _per_layer(name, cold, plain, traced, extras)
        if traced:
            traced[-1].spans.write(OUT / f"trace_{name}.jsonl")
            layers = traced[-1].spans.self_time_by_layer()
    else:
        metrics = _end_to_end(
            plain, import_seconds(0 if scale == "tiny" else IMPORT_SAMPLES),
        ) if plain else {}
    return {
        "correct": not errors and bool(plain),
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors,
        "rounds": len(plain),
        "samples": sum(len(r.ops) for r in plain),
        "run_s_per_round": [r.run_s for r in plain],
        "self_s_by_layer": layers,
        "metrics": {k: {"value": v, "unit": UNITS[k]}
                    for k, v in metrics.items()},
    }


def import_seconds(samples: int) -> float:
    """Best of this process's import and ``samples`` fresh interpreters'."""
    seen = [IMPORT_S]
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(ROOT), str(ROOT / "src")],
            capture_output=True, text=True, timeout=60, check=True)
        seen.append(float(proc.stdout))
    return min(seen)


def _end_to_end(rounds: list[Round], import_s: float) -> dict[str, float]:
    """Per-round statistics, best round of the run.

    Every workload is single-threaded and CPU-bound, and a shared VM only
    ever adds time, in bursts of seconds, so the best round estimates the
    program's own cost (medians over rounds had 2-3x the run-to-run
    spread).
    """
    return {
        "setup_s": import_s + min(r.setup_s for r in rounds),
        "run_s": min(r.run_s for r in rounds),
        "op_ms_p50": min(stats.median(r.ops) for r in rounds) * 1e3,
        "op_ms_p90": min(stats.percentile(r.ops, 90) for r in rounds) * 1e3,
        "recover_ms": min(stats.mean(r.recoveries) for r in rounds) * 1e3,
    }


def _per_layer(name: str, cold, plain, traced, extras) -> dict[str, float]:
    out = {n: 0.0 for n, *_ in catalog.PER_LAYER}
    for key in {k for r in traced for k in r.layer}:
        out[key] = stats.median([r.layer[key] for r in traced if key in r.layer])
    for r in traced[:1] + plain[:1]:
        out.update(r.exact)
    out.update(extras)

    for key in {k for r in plain for k in r.extra}:
        out[key] = stats.median(
            [x for r in plain for x in r.extra[key]]) * 1e3
    ops = [x for r in plain for x in r.ops]
    if name.startswith("serve"):
        out["serve.submit_ack_ms_p99"] = stats.percentile(ops, 99) * 1e3
    bare = out["baseline.engine_only_iter_ms_p50"]
    if bare and ops:
        best = min(stats.median(r.ops) for r in plain) * 1e3
        out["core.ft_overhead_share"] = 1.0 - bare / best

    untraced = stats.median([r.run_s for r in plain])
    if traced and untraced:
        out["obs.trace_overhead_share"] = (
            stats.median([r.run_s for r in traced]) - untraced) / untraced
        out["harness.unattributed_share"] = stats.median(
            [_unattributed(r.spans) for r in traced])
    if cold is not None:
        out["harness.cold_run_s"] = cold.run_s
    return out


def _unattributed(log: SpanLog) -> float:
    """Share of the time inside the timed public calls (``harness.*``
    spans) that no layer boundary below them accounts for."""
    calls = [n for n in log.nested() if n["name"].startswith("harness.")]
    inside = sum(n["end"] - n["start"] for n in calls)
    return sum(n["self"] for n in calls) / inside if inside else 0.0


# -- reporting ----------------------------------------------------------------

def environment(seed: int) -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        ).stdout.strip() or None
    except OSError:
        sha = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": sha,
        "seed": seed,
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def append_history(entry: dict) -> None:
    with open(HISTORY, "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


def print_metrics(name: str, result: dict) -> None:
    print(f"# {name}: rounds={result['rounds']} samples={result['samples']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for key, m in result["metrics"].items():
        print(f"{name:26s} {key:36s} {m['value']:.6g} {m['unit']}")
    total = sum(result["self_s_by_layer"].values())
    if total:
        print(f"# {name}: self time by layer: " + "  ".join(
            f"{layer} {share / total:.1%}" for layer, share in sorted(
                result["self_s_by_layer"].items(), key=lambda kv: -kv[1])))
    for err in result["errors"]:
        print(f"{name}: FAILED {err}")


def driver_mode(args) -> int:
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.scale)
    print_metrics(args.workload, result)
    append_history({"env": environment(args.seed), "workload": args.workload,
                    "trace": args.trace, "seconds": args.seconds,
                    "scale": args.scale, **result})
    sys.stdout.flush()
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def full_mode(args) -> int:
    env = environment(args.seed)
    runs: dict[str, list[dict]] = {}
    ok = True
    for name, _ in catalog.WORKLOADS:
        for trace in ([0, 1] if args.trace else [0]):
            for i in range(args.runs if not trace else 1):
                cmd = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed + i),
                       "--seconds", str(args.seconds), "--trace", str(trace),
                       "--scale", args.scale]
                try:
                    proc = subprocess.run(cmd, capture_output=True, text=True,
                                          timeout=WORKLOAD_TIMEOUT_S + 30)
                    lines = proc.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    print("\n".join(lines[:-1]))
                except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
                    result = {"correct": False, "attempted": 1, "failed": 1,
                              "metrics": {}}
                    print(f"{name}: FAILED {type(exc).__name__}: {exc}")
                result.update(seed=args.seed + i, trace=trace)
                ok = ok and result["correct"]
                runs.setdefault(name, []).append(result)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"env": env, "seconds": args.seconds,
                               "runs": runs}, indent=1, sort_keys=True))
    print(f"# wrote {out}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(KINDS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--runs", type=int, default=1,
                    help="runs per workload when no --workload is given")
    ap.add_argument("--out", default=str(OUT / "result.json"))
    ap.add_argument("--write-manifest", action="store_true",
                    help="regenerate BENCHMARK.json from bench/catalog.py")
    args = ap.parse_args(argv)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(catalog.manifest(), indent=2) + "\n")
        return 0
    OUT.mkdir(parents=True, exist_ok=True)
    _pin_allocator()
    return driver_mode(args) if args.workload else full_mode(args)


if __name__ == "__main__":
    sys.exit(main())
