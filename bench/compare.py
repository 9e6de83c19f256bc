#!/usr/bin/env python3
"""Compare two result files of ``bench/run.py``: ``compare.py A.json B.json``.

A is the base (the parent commit, or the first set of runs), B the change.
One row per workload x end-to-end metric: both medians with quartiles
over the runs, the ratio B/A with its base, and a verdict:

``regressed``   B's median is worse than A's by more than the metric's bound
``improved``    B's median is better than A's by more than either side's spread
``unchanged``   neither
``unresolved``  the run-to-run spread of A or B exceeds the bound, so the
                two cannot be told apart at that resolution

Exact-count per-layer metrics of traced runs with the same seed must be
identical.  Exits non-zero on any ``regressed`` row or exact mismatch.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import catalog, stats  # noqa: E402


def _values(runs: list[dict], metric: str, trace: int) -> list[float]:
    return [r["metrics"][metric]["value"] for r in runs
            if r.get("trace", 0) == trace and metric in r["metrics"]]


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> str:
    qa, qb = stats.quartiles(a), stats.quartiles(b)
    if max(stats.spread(a), stats.spread(b)) > bound:
        return "unresolved"
    worse = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
    if better == "higher":
        worse = -worse
    if worse > bound:
        return "regressed"
    if -worse > max(stats.spread(a), stats.spread(b)):
        return "improved"
    return "unchanged"


def _show(q: tuple[float, float, float]) -> str:
    return f"{q[1]:10.4g} [{q[0]:9.4g}, {q[2]:9.4g}]"


def compare(base: dict, change: dict) -> tuple[list[str], bool]:
    lines = [f"{'workload':26s} {'metric':11s} {'A median [q1, q3]':>34s} "
             f"{'B median [q1, q3]':>34s}  {'B/A':>14s}  verdict"]
    bad = False
    for name, _ in catalog.WORKLOADS:
        runs_a = base["runs"].get(name, [])
        runs_b = change["runs"].get(name, [])
        for metric, unit, better, bound in catalog.END_TO_END:
            a, b = _values(runs_a, metric, 0), _values(runs_b, metric, 0)
            if not a or not b:
                lines.append(f"{name:26s} {metric:11s} missing in "
                             f"{'A' if not a else 'B'}")
                bad = True
                continue
            qa, qb = stats.quartiles(a), stats.quartiles(b)
            v = verdict(a, b, better, bound)
            bad = bad or v == "regressed"
            lines.append(
                f"{name:26s} {metric:11s} {_show(qa)} {_show(qb)}  "
                f"{qb[1] / qa[1]:6.3f}x of {qa[1]:.4g} {unit}  {v}"
                f" (n={len(a)}/{len(b)}, bound {bound:.0%})")
        traced_a = {r["seed"]: r for r in runs_a if r.get("trace")}
        for rb in (r for r in runs_b if r.get("trace")):
            ra = traced_a.get(rb["seed"])
            if ra is None:
                continue
            for metric in sorted(catalog.EXACT):
                va = ra["metrics"].get(metric, {}).get("value")
                vb = rb["metrics"].get(metric, {}).get("value")
                if va != vb:
                    bad = True
                    lines.append(f"{name:26s} exact count {metric} differs: "
                                 f"{va} vs {vb} (seed {rb['seed']})")
    return lines, bad


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    base, change = (json.loads(Path(p).read_text()) for p in argv)
    lines, bad = compare(base, change)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
