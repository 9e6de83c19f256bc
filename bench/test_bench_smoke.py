"""Smoke test of the benchmark harness (collected by the tier-1 command).

Every workload runs once at ``--scale tiny``, traced and untraced: the
oracles must pass, the metric sets must match the catalogue, exact
counts must repeat, and ``BENCHMARK.json`` must satisfy the contract.
Nothing here asserts a timing.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from bench import catalog, compare
from bench import run as bench_run
from bench import serve as bench_serve

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOADS = [name for name, _ in catalog.WORKLOADS]


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """{workload: (untraced, traced, traced again)} at tiny scale."""
    out = tmp_path_factory.mktemp("bench-out")
    saved = bench_run.OUT, bench_serve.SCRATCH
    bench_run.OUT, bench_serve.SCRATCH = out, out / "tmp"
    try:
        yield {
            name: tuple(
                bench_run.run_workload(name, seed=0, seconds=0.05,
                                       trace=trace, scale="tiny")
                for trace in (False, True, True))
            for name in WORKLOADS
        }, out
    finally:
        bench_run.OUT, bench_serve.SCRATCH = saved


@pytest.mark.parametrize("name", WORKLOADS)
def test_oracles_pass(results, name):
    for result in results[0][name]:
        assert result["errors"] == []
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1


@pytest.mark.parametrize("name", WORKLOADS)
def test_metric_sets_match_the_catalogue(results, name):
    plain, traced, _ = results[0][name]
    assert list(plain["metrics"]) == [n for n, *_ in catalog.END_TO_END]
    assert set(traced["metrics"]) == {n for n, *_ in catalog.PER_LAYER}
    for metrics in (plain["metrics"], traced["metrics"]):
        for key, m in metrics.items():
            assert NAME.fullmatch(key)
            assert isinstance(m["value"], (int, float))
            assert m["unit"] == bench_run.UNITS[key]
    assert all(m["value"] > 0 for m in plain["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_exact_counts_repeat(results, name):
    _, first, second = results[0][name]
    for key in catalog.EXACT:
        assert first["metrics"][key] == second["metrics"][key], key


def test_trace_files_are_written(results):
    for name in WORKLOADS:
        lines = (results[1] / f"trace_{name}.jsonl").read_text().splitlines()
        span = json.loads(lines[0])
        assert {"id", "name", "start", "end", "parent", "run", "self"} <= set(span)


def test_compare_finds_no_regression_against_itself(results):
    runs = {name: [dict(r, seed=0, trace=t) for r, t in
                   zip(results[0][name], (0, 1, 1))] for name in WORKLOADS}
    lines, bad = compare.compare({"runs": runs}, {"runs": runs})
    assert not bad, "\n".join(lines)


def test_manifest_satisfies_the_contract():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest == catalog.manifest(), \
        "regenerate with: python3 bench/run.py --write-manifest"
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["paths"] == ["bench"]
    assert 1 <= manifest["run_seconds"] <= 60
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = []
    for w in manifest["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in manifest["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in manifest["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
