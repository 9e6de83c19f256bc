"""Autoplan: does the searched plan beat the naive default, and how fast?

Four gates on the :mod:`repro.plan` auto-planner, all CI-enforced:

* **winner-beats-default** — for each named chaos scenario,
  :func:`repro.plan.autoplan` searches a small experiment-backed space
  and the winner plus the naive default are re-run on *real engines*
  over paired sampled traces (``validate_top_k=1``).  The gate is on
  the engine-*measured* goodput, not the analytic prediction: the
  chosen plan must be at least as good as the default on every
  scenario and strictly better on at least ``--min-wins`` of them.
* **table2-wallclock** — a full :func:`repro.plan.autoplan_workload`
  search over every published Table-2 workload (Wide-ResNet-50,
  ViT-128/32, BERT-128) must finish within ``--max-seconds`` total.
  Feasibility pruning and memoization are what keep this in seconds.
* **memoization** — re-scoring a candidate whose objective key was
  already priced must be a cache hit; the microbench reports the
  hit-path speedup and the gate requires the searches above to have
  recorded at least one hit.
* **determinism** — two searches with identical arguments, anneal and
  exhaustive, must produce byte-identical ``PlanSearchReport.to_json()``,
  and every score the exhaustive searcher ranks (one batch) must equal
  that candidate's score priced alone by a fresh objective.

Run::

    PYTHONPATH=src python benchmarks/bench_autoplan.py [--quick]
        [--min-wins 2] [--max-seconds 60]

Writes ``BENCH_autoplan.json`` at the repo root; exits non-zero if any
gate fails.
"""

from __future__ import annotations

import argparse
import sys
import time

from _common import emit, fmt_table, write_bench_json
from repro.api import (
    ClusterSpec,
    DataSpec,
    Experiment,
    FaultToleranceSpec,
    ModelSpec,
    ParallelismSpec,
)
from repro.plan import ExperimentSearchSpace, autoplan, autoplan_workload
from repro.sim import WORKLOADS

#: named chaos scenarios the engine-paired gate runs under
SCENARIOS = ("steady_mtbf", "flaky_node", "rack_burst")

MACHINES = 4


def _experiment() -> Experiment:
    """The toy engine-runnable experiment the paired gate searches over."""
    return Experiment(
        model=ModelSpec(family="mlp", dim=4, hidden_dim=8,
                        depth=max(2, MACHINES)),
        cluster=ClusterSpec(num_machines=MACHINES, devices_per_machine=1),
        parallelism=ParallelismSpec(kind="dp", num_workers=MACHINES),
        data=DataSpec(batch_size=16, seed=5),
        fault_tolerance=FaultToleranceSpec(
            checkpoint_interval=100, strategy="checkpoint_only",
        ),
    )


def run_engine_gate(seeds: int, iterations: int) -> dict:
    """autoplan + engine-paired validation per scenario."""
    out: dict[str, dict] = {}
    for scenario in SCENARIOS:
        space = ExperimentSearchSpace(
            _experiment(), kinds=("dp",), intervals=(50, 200),
        )
        report = autoplan(
            space, scenario, eval_seeds=2, top_k=3,
            validate_top_k=1, validate_seeds=seeds,
            validate_iterations=iterations,
        )
        rows = {r.role: r for r in report.validation}
        base = rows["baseline"]
        win = rows.get("winner", base)  # winner == default: a tie
        out[scenario] = {
            "winner": report.winner.label(),
            "baseline": report.baseline.candidate.label(),
            "winner_measured_goodput": win.measured_goodput,
            "baseline_measured_goodput": base.measured_goodput,
            "beats_default": win.measured_goodput > base.measured_goodput,
            "no_regression": win.measured_goodput
            >= base.measured_goodput,
            "recoveries": win.recoveries,
            "telemetry_events": win.telemetry_events,
        }
    return out


def run_table2(eval_seeds: int) -> tuple[dict, float]:
    """Full autoplan over every published workload; returns wall-clock."""
    out: dict[str, dict] = {}
    t0 = time.perf_counter()
    for name, workload in WORKLOADS.items():
        t1 = time.perf_counter()
        report = autoplan_workload(
            workload, "steady_mtbf", eval_seeds=eval_seeds, top_k=3,
        )
        out[name] = {
            "winner": report.winner.label(),
            "strategy": report.winner.strategy,
            "enumerated": report.enumerated,
            "feasible": report.feasible,
            "pruned": dict(report.pruned),
            "cache_hit_rate": report.cache_hit_rate,
            "seconds": time.perf_counter() - t1,
        }
    return out, time.perf_counter() - t0


def run_memo_microbench() -> dict:
    """Cold-vs-hit timing of the objective on one candidate."""
    from repro.chaos import get_scenario
    from repro.plan import GoodputObjective

    space = ExperimentSearchSpace(_experiment(), kinds=("dp",))
    objective = GoodputObjective(
        space, get_scenario("steady_mtbf"), eval_seeds=3,
    )
    candidate = space.default()
    t0 = time.perf_counter()
    objective.score(candidate)
    cold = time.perf_counter() - t0
    reps = 100
    t0 = time.perf_counter()
    for _ in range(reps):
        objective.score(candidate)
    hit = (time.perf_counter() - t0) / reps
    return {
        "cold_ms": cold * 1e3,
        "hit_us": hit * 1e6,
        "speedup": cold / hit if hit else float("inf"),
        "hits": objective.hits,
        "misses": objective.misses,
    }


def run_determinism() -> dict:
    """Two identical searches must serialize byte-identically — and so
    must a re-plan on a space already searched under another scenario —
    and a batch-scored ranking must equal each candidate priced alone."""
    from repro.plan import GoodputObjective, get_searcher

    def space():
        return ExperimentSearchSpace(
            _experiment(), kinds=("dp", "pp"), intervals=(50, 200),
        )

    def search(grid, searcher, scenario="flaky_node"):
        return autoplan(grid, scenario, searcher=searcher, seed=7,
                        eval_seeds=2, top_k=3).to_json()

    payloads = {"anneal": [], "exhaustive": []}
    for searcher in payloads:
        for _ in range(2):
            payloads[searcher].append(search(space(), searcher))
    warm = space()
    search(warm, "exhaustive", "rack_burst")
    payloads["exhaustive"].append(search(warm, "exhaustive"))
    grid = space()
    ranked = get_searcher("exhaustive").search(
        grid, GoodputObjective(grid, "flaky_node", eval_seeds=2))
    differs = [
        s.candidate.label() for s in ranked
        if GoodputObjective(space(), "flaky_node", eval_seeds=2)
        .score(s.candidate) != s
    ]
    return {
        "bitwise_identical": payloads["anneal"][0] == payloads["anneal"][1],
        "exhaustive_bitwise_identical":
            len(set(payloads["exhaustive"])) == 1,
        "ranked_scores": len(ranked),
        "differs_when_priced_alone": differs,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: fewer seeds, shorter engine runs")
    parser.add_argument("--min-wins", type=int, default=2,
                        help="gate: winner must strictly beat the naive "
                             "default on at least this many scenarios")
    parser.add_argument("--max-seconds", type=float, default=60.0,
                        help="gate: full Table-2 search wall-clock budget")
    args = parser.parse_args(argv)
    seeds = 2 if args.quick else 3
    iterations = 40 if args.quick else 80

    engine = run_engine_gate(seeds, iterations)
    emit("autoplan_engine", fmt_table(
        ["scenario", "winner", "winner smp/s", "default smp/s", "beats"],
        [[s, r["winner"], f"{r['winner_measured_goodput']:.2f}",
          f"{r['baseline_measured_goodput']:.2f}",
          "yes" if r["beats_default"] else "no"]
         for s, r in engine.items()],
    ))

    table2, wallclock = run_table2(eval_seeds=seeds)
    emit("autoplan_table2", fmt_table(
        ["workload", "winner", "feasible/enum", "hit rate", "seconds"],
        [[name, r["winner"], f"{r['feasible']}/{r['enumerated']}",
          f"{r['cache_hit_rate']:.2f}", f"{r['seconds']:.3f}"]
         for name, r in table2.items()],
    ))

    memo = run_memo_microbench()
    determinism = run_determinism()

    # -- the gates --------------------------------------------------------
    wins = sum(r["beats_default"] for r in engine.values())
    regress = [s for s, r in engine.items() if not r["no_regression"]]
    memo_hits = sum(r["cache_hit_rate"] > 0 for r in table2.values())
    gates = {
        "winner_beats_default": {
            "wins": wins, "min_wins": args.min_wins,
            "regressions": regress,
            "ok": wins >= args.min_wins and not regress,
        },
        "table2_wallclock": {
            "seconds": wallclock, "max_seconds": args.max_seconds,
            "ok": wallclock <= args.max_seconds,
        },
        "memoization": {
            "searches_with_hits": memo_hits,
            "hit_speedup": memo["speedup"],
            "ok": memo_hits > 0 and memo["hits"] > 0,
        },
        "determinism": {
            "ok": determinism["bitwise_identical"]
            and determinism["exhaustive_bitwise_identical"]
            and determinism["ranked_scores"] > 0
            and not determinism["differs_when_priced_alone"],
        },
    }
    ok = all(g["ok"] for g in gates.values())
    print(f"\n[gate] winner beats default on {wins}/{len(engine)} "
          f"scenarios (need {args.min_wins}, regressions {regress or 'none'})")
    print(f"[gate] Table-2 search {wallclock:.2f}s "
          f"(budget {args.max_seconds}s)")
    print(f"[gate] memoized hit path {memo['speedup']:.0f}x faster "
          f"({memo['hit_us']:.1f}us vs {memo['cold_ms']:.2f}ms cold)")
    differs = determinism["differs_when_priced_alone"]
    print(f"[gate] deterministic report JSON: anneal "
          f"{determinism['bitwise_identical']}, exhaustive "
          f"{determinism['exhaustive_bitwise_identical']}; "
          f"{determinism['ranked_scores']} ranked scores, differing when "
          f"priced alone: {differs or 'none'}")
    print(f"[gate] -> {'OK' if ok else 'FAIL'}")

    write_bench_json("autoplan", {
        "engine_paired": engine,
        "table2": table2,
        "memoization": memo,
        "determinism": determinism,
        "gates": gates,
        "settings": {"validate_seeds": seeds,
                     "validate_iterations": iterations,
                     "machines": MACHINES},
    })
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
