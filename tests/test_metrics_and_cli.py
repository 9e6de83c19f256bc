"""Trace totals, CSV export, and the CLI experiment runner."""

import numpy as np
import pytest

from helpers import make_dp_engine
from repro.cli import main as cli_main
from repro.cluster import FailureEvent, FailurePhase, FailureSchedule
from repro.core import SwiftTrainer, TrainerConfig, TrainingTrace
from repro.obs import trace_to_csv


def run_trace(with_failure=False, iterations=12):
    eng = make_dp_engine()
    trainer = SwiftTrainer(eng, TrainerConfig(checkpoint_interval=5))
    failures = None
    if with_failure:
        failures = FailureSchedule(
            [FailureEvent(1, 7, FailurePhase.MID_UPDATE, after_updates=1)]
        )
    return trainer.train(iterations, failures=failures)


class TestSummary:
    """The run summary a report reads straight off ``TrainingTrace``."""

    def test_basic_fields(self):
        trace = run_trace()
        assert len(trace.iteration_times) == 12
        assert min(trace.throughput(16)) > 0
        assert [it for it, _ in trace.checkpoints] == [0, 5, 10]
        assert not trace.recoveries
        assert np.isfinite(trace.losses[-1])

    def test_recovery_counted(self):
        trace = run_trace(with_failure=True)
        assert len(trace.recoveries) == 1
        assert trace.recovery_time_total > 0

    def test_overhead_fraction_bounded(self):
        trace = run_trace()
        overhead = 1.0 - sum(trace.iteration_times) / trace.total_time
        assert 0.0 <= overhead < 1.0

    def test_goodput_below_steady_throughput(self):
        trace = run_trace(with_failure=True)
        assert trace.goodput(16) <= np.median(trace.throughput(16))


class TestDegenerateTraces:
    """Empty and zero-iteration traces reduce to well-defined zeros.

    Regression tests for the NaN / ZeroDivisionError family: the totals
    of a trace before any iteration ran (or after a run that recorded no
    useful work) must be safe — telemetry and dashboards read live,
    possibly-empty runs.
    """

    def test_empty_trace_is_all_zeros(self):
        trace = TrainingTrace()
        assert trace.total_time == 0.0
        assert trace.throughput(16) == []
        assert trace.recovery_time_total == 0
        assert trace.goodput(16) == 0.0

    def test_zero_iteration_times_never_nan(self):
        trace = TrainingTrace(
            losses=[1.0, 0.9], iteration_times=[0.0, 0.0],
            iteration_numbers=[0, 1], wall_times=[0.0, 0.0],
        )
        assert trace.throughput(16) == [0.0, 0.0]
        assert trace.total_time == 0.0
        assert trace.goodput(16) == 0.0

    def test_nonfinite_iteration_times_guarded(self):
        trace = TrainingTrace(
            losses=[1.0], iteration_times=[float("inf")],
            iteration_numbers=[0], wall_times=[float("inf")],
        )
        assert trace.throughput(16) == [0.0]
        assert trace.goodput(16) == 0.0

    @pytest.mark.parametrize("bad", [float("-inf"), float("nan")])
    def test_nan_and_negative_times_give_zero(self, bad):
        trace = TrainingTrace(
            losses=[1.0], iteration_times=[bad],
            iteration_numbers=[0], wall_times=[bad],
        )
        assert trace.throughput(16) == [0.0]
        assert trace.goodput(16) == 0.0

    def test_empty_trace_csv_is_header_only(self):
        assert trace_to_csv(TrainingTrace(), 16).strip() == (
            "iteration,loss,sim_time_s,throughput"
        )


class TestLossCurveDistance:
    def test_recovered_run_has_zero_distance(self):
        """Figure 11's metric: recovery preserves the loss trajectory."""
        ref = run_trace()
        rec = run_trace(with_failure=True)
        assert len(ref.losses) == len(rec.losses)
        assert np.max(np.abs(np.subtract(ref.losses, rec.losses))) < 1e-6


class TestCsvExport:
    def test_header_and_rows(self):
        trace = run_trace(iterations=5)
        csv_text = trace_to_csv(trace, 16)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "iteration,loss,sim_time_s,throughput"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == pytest.approx(trace.losses[0])

    def test_rows_follow_the_trace(self):
        trace = run_trace(iterations=5)
        rows = [line.split(",") for line in
                trace_to_csv(trace, 16).strip().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == trace.iteration_numbers
        assert [float(r[2]) for r in rows] == pytest.approx(
            trace.iteration_times, abs=1e-6)
        assert [float(r[3]) for r in rows] == pytest.approx(
            trace.throughput(16), abs=1e-3)

    def test_zero_time_row_reads_zero_throughput(self):
        trace = TrainingTrace(losses=[1.0], iteration_times=[0.0],
                              iteration_numbers=[0], wall_times=[0.0])
        row = trace_to_csv(trace, 16).strip().splitlines()[1]
        assert row == "0,1.00000000,0.000000,0"


class TestCLI:
    def test_workloads(self, capsys):
        assert cli_main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "Wide-ResNet-50" in out and "BERT-128" in out

    def test_table3(self, capsys):
        assert cli_main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "24.66" in out and "8.05" in out

    def test_table5_fast(self, capsys):
        assert cli_main(["table5", "--repeats", "2"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "Wide-ResNet-50" in out

    @pytest.mark.parametrize("workload", ["wrn", "vit", "bert"])
    def test_fig8(self, workload, capsys):
        assert cli_main(["fig8", workload]) == 0
        out = capsys.readouterr().out
        assert "recovery" in out

    def test_plan(self, capsys):
        assert cli_main(["plan", "--workload", "bert",
                         "--budget-gb", "200"]) == 0
        out = capsys.readouterr().out
        assert "groups" in out and "expected recovery" in out

    def test_plan_rejects_dp_workload(self, capsys):
        # wrn is a valid --optimize target but the selective-logging
        # planner needs a pipeline: usage error, exit 2
        assert cli_main(
            ["plan", "--workload", "wrn", "--budget-gb", "1"]
        ) == 2
        err = capsys.readouterr().err
        assert "pipeline" in err

    def test_fleet(self, capsys):
        assert cli_main(["fleet", "--iterations", "6"]) == 0
        out = capsys.readouterr().out
        assert "cluster goodput" in out
        assert "mean queueing delay" in out
        assert "preemption events" in out
        assert "dp-rush" in out and "pp-chain" in out


class TestCLISmoke:
    """Every subcommand must run to exit code 0 through repro.cli.main."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["workloads"],
            ["table3"],
            ["table5", "--repeats", "1"],
            ["fig8", "wrn"],
            ["fig8", "vit"],
            ["fig8", "bert"],
            ["plan", "--workload", "bert", "--budget-gb", "200"],
            ["plan", "--workload", "vit", "--budget-gb", "100"],
            ["fleet", "--iterations", "4", "--machines", "5"],
            ["serve", "--drill", "--kill-points", "3"],
        ],
        ids=lambda argv: "-".join(a.lstrip("-") for a in argv),
    )
    def test_subcommand_exits_zero(self, argv, capsys):
        assert cli_main(argv) == 0
        assert capsys.readouterr().out  # every command prints something

    def test_serve_demo_smoke(self, tmp_path, capsys):
        wal = str(tmp_path / "wal.jsonl")
        assert cli_main(["serve", "--demo", "--wal", wal,
                         "--no-fsync"]) == 0
        assert "goodput" in capsys.readouterr().out

    @pytest.mark.parametrize("segment_bytes", [256, None],
                             ids=["segment_dir", "flat_file"])
    def test_serve_replay_is_read_only(self, tmp_path, capsys,
                                       segment_bytes):
        from repro.serve import ServeEvent, open_wal

        path = tmp_path / "wal"
        wal = open_wal(path, fsync=False, segment_bytes=segment_bytes)
        for seq in range(8):
            wal.append(ServeEvent(seq=seq, kind="round",
                                  payload={"round": seq, "dt": 1.0}))
        wal.close()
        # a torn tail is what a live server killed mid-append leaves:
        # recovery would truncate it, inspection must not
        with open(wal.active_path, "a") as fh:
            fh.write('{"c":0,"k":"rou')
        files = [path] if path.is_file() else sorted(path.iterdir())
        before = {p.name: p.read_bytes() for p in files}
        assert cli_main(["serve", "--replay", str(path)]) == 0
        # inspection must not rename, truncate, or reopen any file
        files = [path] if path.is_file() else sorted(path.iterdir())
        assert {p.name: p.read_bytes() for p in files} == before
        out = capsys.readouterr().out
        assert "replayed 8 events" in out and "read-only" in out


class TestCLIDataErrors:
    """Unreadable/corrupt input files: exit 1, one-line diagnostic,
    never a bare traceback (usage errors stay exit 2)."""

    def test_obs_missing_file_exits_one(self, tmp_path, capsys):
        assert cli_main(["obs", str(tmp_path / "nope.jsonl")]) == 1
        err = capsys.readouterr().err
        assert "cannot read telemetry" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_obs_corrupt_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"not": "telemetry"}\n{"x": 1}\n')
        assert cli_main(["obs", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "cannot read telemetry" in err
        assert "Traceback" not in err

    def test_serve_replay_corrupt_wal_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"version": 999}\n')
        assert cli_main(["serve", "--replay", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "cannot replay WAL" in err
        assert "Traceback" not in err

    def test_chaos_missing_trace_exits_one(self, tmp_path, capsys):
        assert cli_main(["chaos", "--trace",
                         str(tmp_path / "nope.jsonl")]) == 1
        assert "cannot read trace" in capsys.readouterr().err

    def test_usage_errors_stay_exit_two(self, capsys):
        assert cli_main(["chaos"]) == 2
        assert cli_main(["serve", "--stdio"]) == 2
        capsys.readouterr()
