#!/usr/bin/env python3
"""Paired parent/change runs of ``bench/run.py`` workloads.

The measurement protocol a performance claim has to follow, as one
command (standard library only; imports neither ``repro`` nor ``bench``,
so it works across commits whose code differs)::

    python3 benchmarks/paired.py --parent HEAD~1 \\
        --workload dp8_replication_undo --pairs 10 --seconds 15 \\
        --seed0 200 --claim recover_ms

``--parent`` is a revision, checked out with ``git worktree add`` under a
temporary directory (removed afterwards), or an existing checkout's
path.  The change is the tree this script sits in.  Each pair runs both
sides' *own* ``bench/run.py --workload W --seed N --trace 0`` on one seed,
alternating which side goes first; ``--workload`` may repeat and defaults
to every workload in ``BENCHMARK.json``.  Nothing is reported if any
run's result line says ``correct: false`` or ``failed > 0``.

``--trace`` pairs traced runs (``--trace 1``) instead, whose result lines
hold the per-layer metrics; ``--report METRIC`` (repeatable) names the
ones to print, default all of them.  A traced run carries no end-to-end
metric, so ``--claim`` refuses ``--trace``.

Per end-to-end metric it prints both medians with quartiles and the
pairs each side won (ties count for neither).  ``--claim METRIC`` applies
the rule a gain must meet: the change wins at least nine tenths of all
pairs *and* the medians differ by more than the distance between the
parent's quartiles.  ``A.json`` (parent) and ``B.json`` (change) land in
``--out`` in the shape ``bench/compare.py A.json B.json`` reads.

Exit status: 0 reported (claim, if any, met), 1 claim not met, 2 a run
was incorrect or failed.  Needs a quiet machine; CI does not run it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


@contextmanager
def parent_checkout(parent: str):
    """Path of the parent tree: ``parent`` itself, or a temporary worktree."""
    if Path(parent).is_dir():
        yield Path(parent).resolve()
        return
    with tempfile.TemporaryDirectory(prefix="paired-") as tmp:
        tree = Path(tmp) / "parent"
        subprocess.run(
            ["git", "worktree", "add", "--detach", str(tree), parent],
            cwd=ROOT, check=True, capture_output=True,
        )
        try:
            yield tree
        finally:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(tree)],
                cwd=ROOT, check=False, capture_output=True,
            )


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    """One run of ``tree``'s own harness; its final JSON line, parsed."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                  "stderr": proc.stderr[-2000:]}
    result.update(seed=seed, trace=trace)
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


class Row(NamedTuple):
    """One end-to-end metric of one workload over all pairs."""

    metric: str
    unit: str
    parent: tuple[float, float, float]  # (q1, median, q3)
    change: tuple[float, float, float]
    wins_parent: int
    wins_change: int


def summarize(runs_a: list[dict], runs_b: list[dict], lower,
              names: list[str] | None = None) -> list[Row]:
    rows = []
    for metric in names or runs_a[0]["metrics"]:
        a = [r["metrics"][metric]["value"] for r in runs_a]
        b = [r["metrics"][metric]["value"] for r in runs_b]
        sign = 1 if lower(metric) else -1
        rows.append(Row(
            metric, runs_a[0]["metrics"][metric]["unit"],
            quartiles(a), quartiles(b),
            sum(sign * x < sign * y for x, y in zip(a, b)),
            sum(sign * y < sign * x for x, y in zip(a, b)),
        ))
    return rows


def claim_met(row: Row, pairs: int, lower_is_better: bool) -> bool:
    """>= 9/10 of all pairs won and a median gap beyond the parent's IQR."""
    gap = row.parent[1] - row.change[1]
    if not lower_is_better:
        gap = -gap
    return (row.wins_change * 10 >= pairs * 9
            and gap > row.parent[2] - row.parent[0])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True,
                    help="revision to check out, or path of a checkout")
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--seed0", type=int, default=0,
                    help="pair i runs both sides on seed0 + i")
    ap.add_argument("--claim", metavar="METRIC",
                    help="end-to-end metric the change claims to improve")
    ap.add_argument("--trace", action="store_true",
                    help="pair traced runs and report per-layer metrics")
    ap.add_argument("--report", action="append", metavar="METRIC",
                    help="with --trace, repeatable: per-layer metric to "
                         "print; default every one")
    ap.add_argument("--out", default=str(ROOT / "benchmarks" / "out" / "paired"),
                    help="directory for A.json / B.json")
    args = ap.parse_args(argv)

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    claimable = {m["name"]: m["better"] for m in manifest["end_to_end"]}
    layered = {m["name"]: m["better"] for m in manifest["per_layer"]}
    better = {**claimable, **layered}
    lower = lambda metric: better.get(metric, "lower") == "lower"  # noqa: E731
    workloads = args.workload or [w["name"] for w in manifest["workloads"]]
    if args.claim and (args.claim not in claimable or len(workloads) != 1
                       or args.trace):
        ap.error(f"--claim takes one of {sorted(claimable)} on one "
                 "--workload, untraced")
    if args.report and not args.trace:
        ap.error("--report needs --trace")
    unknown = sorted(set(args.report or ()) - layered.keys())
    if unknown:
        ap.error(f"--report takes per-layer metrics; unknown: {unknown}")

    #: side -> workload -> one result per pair
    sides = {side: {w: [] for w in workloads} for side in "AB"}
    with parent_checkout(args.parent) as parent:
        trees = {"A": parent, "B": ROOT}
        for i in range(args.pairs):
            for workload in workloads:
                for side in ("AB", "BA")[i % 2]:
                    result = run_once(trees[side], workload,
                                      args.seed0 + i, args.seconds,
                                      int(args.trace))
                    sides[side][workload].append(result)
                    shown = "  ".join(
                        f"{k} {m['value']:.4g}"
                        for k, m in result["metrics"].items()
                        if not args.trace or k in (args.report or (k,)))
                    print(f"pair {i} {side} {workload} seed "
                          f"{args.seed0 + i}: {shown}", flush=True)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for side, tree in (("A", args.parent), ("B", str(ROOT))):
        (out / f"{side}.json").write_text(json.dumps(
            {"env": {"tree": tree, "seed": args.seed0},
             "seconds": args.seconds, "trace": int(args.trace),
             "runs": sides[side]},
            indent=1, sort_keys=True))
    print(f"# wrote {out}/A.json (parent) and {out}/B.json (change)")

    bad = [(side, w, r) for side, runs in sides.items()
           for w, results in runs.items() for r in results
           if not r["correct"] or r["failed"] > 0]
    if bad:
        for side, w, r in bad:
            print(f"REFUSED: side {side} {w} seed {r['seed']}: correct="
                  f"{r['correct']} failed={r['failed']} "
                  f"{r.get('stderr', '')}")
        return 2

    show = lambda q: f"{q[1]:9.4g} [{q[0]:9.4g}, {q[2]:9.4g}]"  # noqa: E731
    print(f"{args.pairs} pairs, seeds {args.seed0}.."
          f"{args.seed0 + args.pairs - 1}, {args.seconds:g} s per run")
    width = 34 if args.trace else 11
    print(f"{'workload':26s} {'metric':{width}s} "
          f"{'parent median [q1, q3]':>33s} "
          f"{'change median [q1, q3]':>33s}  pairs won parent/change")
    tables = {w: summarize(sides["A"][w], sides["B"][w], lower, args.report)
              for w in workloads}
    for workload, rows in tables.items():
        for row in rows:
            print(f"{workload:26s} {row.metric:{width}s} {show(row.parent)} "
                  f"{show(row.change)}  {row.wins_parent}/{row.wins_change} "
                  f"of {args.pairs}  ({row.unit})")
    if not args.claim:
        return 0
    # --claim is only accepted with exactly one workload
    row = next(r for r in tables[workloads[0]] if r.metric == args.claim)
    met = claim_met(row, args.pairs, lower(args.claim))
    print(f"claim {args.claim}: change won {row.wins_change}/{args.pairs} "
          f"pairs, medians {row.parent[1]:.4g} -> {row.change[1]:.4g} "
          f"{row.unit}, parent IQR {row.parent[2] - row.parent[0]:.4g}: "
          f"{'MET' if met else 'NOT MET'}")
    return 0 if met else 1


if __name__ == "__main__":
    sys.exit(main())
