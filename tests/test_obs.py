"""repro.obs: recorders, telemetry traces, exporters, and integration.

Covers the observability acceptance criteria:

* versioned JSONL round trips byte-stably (golden trace included);
* the per-phase recovery breakdown sums to the run's
  ``recovery_time_total``;
* Chrome trace-event export is schema-valid on both timelines;
* a NullRecorder (or no recorder) run is bitwise-identical to a
  TraceRecorder run — instrumentation never perturbs numerics.
"""

import json
from pathlib import Path

import pytest

from helpers import make_dp_engine, make_pp_engine
from repro.api import (
    ClusterSpec,
    Experiment,
    FaultToleranceSpec,
    ModelSpec,
    ParallelismSpec,
)
from repro.cluster import (
    FailureEvent,
    FailurePhase,
    FailureSchedule,
    SimClock,
)
from repro.core import SwiftTrainer, TrainerConfig
from repro.errors import ConfigurationError
from repro.obs import (
    NULL_RECORDER,
    JsonlSink,
    NullRecorder,
    Recorder,
    TelemetryEvent,
    TelemetryTrace,
    TraceRecorder,
    record_recovery_phases,
    summarize_telemetry,
    telemetry_to_csv,
    to_chrome_trace,
    trace_to_csv,
)
from repro.obs.recorder import _NULL_SPAN
from repro.sim.fleet import FleetSimulator

GOLDEN = Path(__file__).parent / "traces" / "telemetry_golden.jsonl"


def dp_experiment(scenario=None, seed=0, machines=4):
    return Experiment(
        name="obs-test",
        model=ModelSpec(family="mlp", dim=8, hidden_dim=16, seed=5),
        cluster=ClusterSpec(num_machines=machines, devices_per_machine=1),
        parallelism=ParallelismSpec(kind="dp", num_workers=machines),
        fault_tolerance=FaultToleranceSpec(
            checkpoint_interval=20, scenario=scenario, scenario_seed=seed,
        ),
    )


# ---------------------------------------------------------------------------
# events and traces
# ---------------------------------------------------------------------------

class TestTelemetryEvent:
    def test_round_trip(self):
        e = TelemetryEvent(seq=3, kind="span", name="x", wall=1.5,
                           wall_dur=0.25, sim=10.0, sim_dur=2.0,
                           attrs=(("b", "2"), ("a", "1")))
        assert TelemetryEvent.from_json(e.to_json()) == e

    def test_attrs_sorted_and_stringified(self):
        e = TelemetryEvent(seq=0, kind="count", name="n", value=1.0,
                           attrs=(("z", 9), ("a", 1)))
        assert e.attrs == (("a", "1"), ("z", "9"))
        assert e.attrs_dict == {"a": "1", "z": "9"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            TelemetryEvent(seq=0, kind="metric", name="x")

    def test_negative_seq_and_durations_rejected(self):
        with pytest.raises(ConfigurationError):
            TelemetryEvent(seq=-1, kind="span", name="x")
        with pytest.raises(ConfigurationError):
            TelemetryEvent(seq=0, kind="span", name="x", wall_dur=-0.1)
        with pytest.raises(ConfigurationError):
            TelemetryEvent(seq=0, kind="span", name="x", sim_dur=-0.1)


class TestTelemetryTrace:
    def make(self):
        return TelemetryTrace(
            source="unit",
            events=(
                TelemetryEvent(seq=0, kind="span", name="a", sim=0.0,
                               sim_dur=1.0, wall_dur=0.5),
                TelemetryEvent(seq=1, kind="count", name="c", value=2.0),
                TelemetryEvent(seq=2, kind="count", name="c", value=3.0),
                TelemetryEvent(seq=3, kind="gauge", name="g", value=7.0,
                               sim=1.0),
                TelemetryEvent(seq=4, kind="gauge", name="g", value=9.0,
                               sim=2.0),
                TelemetryEvent(seq=5, kind="instant", name="i"),
            ),
            meta=(("k", "v"),),
        )

    def test_round_trip_byte_stable(self):
        trace = self.make()
        text = trace.to_jsonl()
        restored = TelemetryTrace.from_jsonl(text)
        assert restored == trace
        assert restored.to_jsonl() == text

    def test_views_and_aggregations(self):
        trace = self.make()
        assert len(trace.spans) == 1
        assert len(trace.counts) == 2
        assert len(trace.gauges) == 2
        assert len(trace.instants) == 1
        assert trace.span_names() == ["a"]
        assert trace.total("a", "sim") == 1.0
        assert trace.total("a", "wall") == 0.5
        assert trace.counter_totals() == {"c": 5.0}
        assert trace.last_gauges() == {"g": 9.0}
        assert trace.gauge_series("g") == [(1.0, 7.0), (2.0, 9.0)]

    def test_total_rejects_unknown_timeline(self):
        with pytest.raises(ConfigurationError):
            self.make().total("a", "cpu")

    def test_with_meta(self):
        trace = self.make().with_meta(extra=12)
        assert trace.meta_dict == {"k": "v", "extra": "12"}

    def test_newer_version_rejected(self):
        header = json.dumps({"version": 99, "source": "future", "meta": {}})
        with pytest.raises(ConfigurationError):
            TelemetryTrace.from_jsonl(header + "\n")

    def test_empty_and_headerless_rejected(self):
        with pytest.raises(ConfigurationError):
            TelemetryTrace.from_jsonl("")
        with pytest.raises(ConfigurationError):
            TelemetryTrace.from_jsonl('{"source": "no-version"}\n')

    def test_save_load(self, tmp_path):
        trace = self.make()
        path = trace.save(tmp_path / "t.jsonl")
        assert TelemetryTrace.load(path) == trace


class TestGoldenTrace:
    def test_golden_reserializes_byte_identically(self):
        text = GOLDEN.read_text()
        assert TelemetryTrace.from_jsonl(text).to_jsonl() == text

    def test_golden_recovery_breakdown_sums_to_recovery_span(self):
        trace = TelemetryTrace.load(GOLDEN)
        breakdown = trace.recovery_breakdown()
        assert set(breakdown) == {"detect", "rollback", "rejoin", "replay"}
        assert sum(breakdown.values()) == pytest.approx(
            trace.total("trainer/recovery", "sim"), rel=1e-12
        )

    def test_golden_exports(self):
        trace = TelemetryTrace.load(GOLDEN)
        doc = json.loads(to_chrome_trace(trace))
        assert {e["ph"] for e in doc["traceEvents"]} == {"M", "C", "X"}
        csv_text = telemetry_to_csv(trace)
        assert csv_text.splitlines()[0] == (
            "iteration,loss,sim_time_s,throughput"
        )
        assert len(csv_text.strip().splitlines()) == 4  # header + 3 iters
        summary = summarize_telemetry(trace)
        assert "recovery breakdown" in summary
        assert "golden:steady_mtbf" in summary


# ---------------------------------------------------------------------------
# recorders
# ---------------------------------------------------------------------------

class TestNullRecorder:
    def test_base_is_null(self):
        for rec in (Recorder(), NullRecorder(), NULL_RECORDER):
            assert rec.enabled is False
            span = rec.span("anything", attr=1)
            assert span is _NULL_SPAN
            with span as s:
                assert s.set(x=1) is s
            rec.span_at("x", sim=0.0, sim_dur=1.0)
            rec.count("c")
            rec.gauge("g", 1.0)
            rec.instant("i")
            rec.subscribe(lambda e: None)
            rec.unsubscribe(lambda e: None)


class TestTraceRecorder:
    def test_span_records_both_timelines(self):
        clock = SimClock()
        rec = TraceRecorder(clock=clock)
        with rec.span("work", tag="t") as sp:
            clock.advance(2.5, "compute")
            sp.set(extra=1)
        (e,) = rec.events
        assert e.kind == "span" and e.name == "work"
        assert e.sim == 0.0 and e.sim_dur == 2.5
        assert e.wall_dur >= 0.0
        assert e.attrs_dict == {"tag": "t", "extra": "1"}

    def test_span_without_clock_has_no_sim(self):
        rec = TraceRecorder()
        with rec.span("work"):
            pass
        (e,) = rec.events
        assert e.sim is None and e.sim_dur is None

    def test_span_exit_idempotent(self):
        rec = TraceRecorder()
        span = rec.span("once")
        with span:
            pass
        span.__exit__(None, None, None)  # re-exit records nothing
        assert len(rec.events) == 1

    def test_span_at(self):
        rec = TraceRecorder()
        rec.span_at("synthetic", sim=5.0, sim_dur=1.5, wall=0.0, phase="p")
        (e,) = rec.events
        assert (e.sim, e.sim_dur, e.wall_dur) == (5.0, 1.5, 0.0)

    def test_counters_and_gauges_live(self):
        rec = TraceRecorder()
        rec.count("iters")
        rec.count("iters", 2.0)
        rec.gauge("loss", 0.5)
        rec.gauge("loss", 0.25)
        rec.instant("marker", why="test")
        assert rec.counters == {"iters": 3.0}
        assert rec.gauges == {"loss": 0.25}
        trace = rec.trace("unit")
        assert trace.counter_totals() == {"iters": 3.0}
        assert trace.last_gauges() == {"loss": 0.25}
        (inst,) = trace.instants
        assert inst.attrs_dict == {"why": "test"}

    def test_seq_monotonic(self):
        rec = TraceRecorder()
        for _ in range(5):
            rec.count("c")
        assert [e.seq for e in rec.events] == list(range(5))

    def test_subscribe_unsubscribe(self):
        rec = TraceRecorder()
        seen = []
        rec.subscribe(seen.append)
        rec.subscribe(seen.append)  # duplicate ignored
        rec.count("a")
        rec.unsubscribe(seen.append)
        rec.count("b")
        assert [e.name for e in seen] == ["a"]

    def test_clear(self):
        rec = TraceRecorder()
        rec.count("c")
        rec.gauge("g", 1.0)
        rec.clear()
        assert rec.events == () and rec.counters == {} and rec.gauges == {}
        rec.count("c")
        assert rec.events[0].seq == 0

    def test_trace_meta_sorted(self):
        rec = TraceRecorder()
        trace = rec.trace("unit", zeta=1, alpha=2)
        assert trace.meta == (("alpha", "2"), ("zeta", "1"))


class TestJsonlSink:
    def test_file_valid_at_every_instant(self, tmp_path):
        path = tmp_path / "live.jsonl"
        rec = TraceRecorder()
        with JsonlSink(path, source="live-test", run="1") as sink:
            rec.subscribe(sink)
            assert TelemetryTrace.load(path).events == ()  # header only
            rec.count("a")
            mid = TelemetryTrace.load(path)
            assert mid.counter_totals() == {"a": 1.0}
            assert mid.meta_dict == {"run": "1"}
            rec.count("a")
        final = TelemetryTrace.load(path)
        assert final.counter_totals() == {"a": 2.0}
        assert final.source == "live-test"

    def test_closed_sink_rejects_events(self, tmp_path):
        sink = JsonlSink(tmp_path / "x.jsonl")
        sink.close()
        with pytest.raises(ConfigurationError):
            sink(TelemetryEvent(seq=0, kind="count", name="c", value=1.0))


class TestRecordRecoveryPhases:
    class Report:
        detection_time = 1.0
        undo_time = 0.5
        init_time = 0.25
        restore_time = 2.25
        strategy = "logging"

    def test_phases_tile_the_recovery_interval(self):
        rec = TraceRecorder()
        record_recovery_phases(rec, self.Report(), sim_end=10.0)
        spans = rec.trace("x").spans
        assert [e.name for e in spans] == [
            "recovery/detect", "recovery/rollback",
            "recovery/rejoin", "recovery/replay",
        ]
        # contiguous: each phase starts where the previous ended
        assert spans[0].sim == pytest.approx(6.0)
        for prev, cur in zip(spans, spans[1:]):
            assert cur.sim == pytest.approx(prev.sim + prev.sim_dur)
        assert spans[-1].sim + spans[-1].sim_dur == pytest.approx(10.0)
        assert spans[0].attrs_dict["strategy"] == "logging"

    def test_null_recorder_no_op(self):
        record_recovery_phases(NULL_RECORDER, self.Report(), sim_end=10.0)

    def test_negative_phase_rejected(self):
        report = self.Report()
        report.undo_time = -1.0
        with pytest.raises(ConfigurationError):
            record_recovery_phases(TraceRecorder(), report, sim_end=10.0)


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------

class TestChromeExport:
    def recorded(self):
        clock = SimClock()
        rec = TraceRecorder(clock=clock)
        with rec.span("work", detail="d"):
            clock.advance(1.0, "compute")
        rec.count("iters", 2)
        rec.gauge("depth", 3)
        rec.instant("mark")
        return rec.trace("chrome-test", scenario="unit")

    def test_schema(self):
        doc = json.loads(to_chrome_trace(self.recorded()))
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"] == {"scenario": "unit"}
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases == {"M", "X", "C", "i"}
        for e in events:
            assert e["pid"] == 1
            assert "name" in e
            if e["ph"] != "M":
                assert e["ts"] >= 0 and isinstance(e["tid"], int)
        (span,) = [e for e in events if e["ph"] == "X"]
        assert span["dur"] >= 0 and span["args"] == {"detail": "d"}
        (inst,) = [e for e in events if e["ph"] == "i"]
        assert inst["s"] == "t"

    def test_sim_timeline_uses_sim_coordinates(self):
        doc = json.loads(to_chrome_trace(self.recorded(), timeline="sim"))
        (span,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert span["ts"] == 0.0 and span["dur"] == pytest.approx(1e6)

    def test_sim_timeline_omits_clockless_events(self):
        rec = TraceRecorder()  # no clock bound
        with rec.span("work"):
            pass
        doc = json.loads(to_chrome_trace(rec.trace("x"), timeline="sim"))
        assert [e for e in doc["traceEvents"] if e["ph"] == "X"] == []

    def test_unknown_timeline_rejected(self):
        with pytest.raises(ConfigurationError):
            to_chrome_trace(self.recorded(), timeline="cpu")


class TestCsvExport:
    def test_matches_trace_to_csv(self):
        eng = make_dp_engine()
        rec = TraceRecorder()
        trainer = SwiftTrainer(eng, TrainerConfig(checkpoint_interval=10),
                               recorder=rec)
        run = trainer.train(8)
        batch = eng.task.batch_size
        assert telemetry_to_csv(rec.trace("x"), batch) == \
            trace_to_csv(run, batch)

    def test_batch_size_meta_fallback(self):
        rec = TraceRecorder()
        rec.span_at("trainer/iteration", sim=0.0, sim_dur=0.5,
                    iteration=0, loss=1.0)
        trace = rec.trace("x", batch_size=32)
        assert ",64.000" in telemetry_to_csv(trace)


# ---------------------------------------------------------------------------
# trainer / session / fleet integration
# ---------------------------------------------------------------------------

def one_failure(iteration=5, machine=1, phase=FailurePhase.FORWARD):
    return FailureSchedule(
        [FailureEvent(iteration=iteration, machine_id=machine, phase=phase)]
    )


class TestTrainerIntegration:
    @pytest.mark.parametrize("make_engine", [make_dp_engine, make_pp_engine],
                             ids=["dp", "pp"])
    def test_recorded_run_bitwise_equal_to_plain(self, make_engine):
        def run(recorder):
            eng = make_engine()
            trainer = SwiftTrainer(
                eng, TrainerConfig(checkpoint_interval=4), recorder=recorder,
            )
            return trainer.train(12, failures=one_failure())

        plain = run(None)
        null = run(NullRecorder())
        traced = run(TraceRecorder())
        assert plain.losses == null.losses == traced.losses
        assert plain.iteration_times == null.iteration_times \
            == traced.iteration_times
        assert plain.recovery_time_total == traced.recovery_time_total

    def test_span_taxonomy_and_counters(self):
        eng = make_dp_engine()
        rec = TraceRecorder()
        trainer = SwiftTrainer(eng, TrainerConfig(checkpoint_interval=4),
                               recorder=rec)
        trainer.train(9, failures=one_failure())
        trace = rec.trace("unit")
        names = set(trace.span_names())
        assert {"trainer/iteration", "checkpoint/capture",
                "checkpoint/persist", "engine/forward_backward",
                "engine/allreduce", "engine/optimizer", "trainer/recovery",
                "recovery/detect", "recovery/rollback", "recovery/rejoin",
                "recovery/replay"} <= names
        totals = trace.counter_totals()
        assert totals["trainer/iterations"] == 9.0
        assert totals["trainer/failures"] == 1.0
        assert totals["trainer/recoveries"] == 1.0
        assert totals["trainer/checkpoints"] == 3.0  # iters 0, 4, 8

    def test_breakdown_sums_to_recovery_time_total(self):
        eng = make_dp_engine()
        rec = TraceRecorder()
        trainer = SwiftTrainer(eng, TrainerConfig(checkpoint_interval=4),
                               recorder=rec)
        run = trainer.train(
            14, failures=FailureSchedule([
                FailureEvent(iteration=3, machine_id=1,
                             phase=FailurePhase.FORWARD),
                FailureEvent(iteration=9, machine_id=0,
                             phase=FailurePhase.MID_UPDATE),
            ]),
        )
        assert len(run.recoveries) == 2
        breakdown = rec.trace("x").recovery_breakdown()
        assert sum(breakdown.values()) == pytest.approx(
            run.recovery_time_total, rel=1e-12
        )

    def test_recorder_binds_trainer_clock(self):
        eng = make_dp_engine()
        rec = TraceRecorder()
        trainer = SwiftTrainer(eng, TrainerConfig(checkpoint_interval=10),
                               recorder=rec)
        assert rec.clock is trainer.clock
        trainer.train(2)
        iters = rec.trace("x").spans_named("trainer/iteration")
        assert all(e.sim is not None and e.sim_dur > 0 for e in iters)


class TestSessionIntegration:
    def test_telemetry_requires_trace_recorder(self):
        session = dp_experiment().build()
        with pytest.raises(ConfigurationError):
            _ = session.telemetry
        session.run(2, recorder=NullRecorder())
        with pytest.raises(ConfigurationError):
            _ = session.telemetry

    def test_steady_mtbf_breakdown_sums(self):
        session = dp_experiment(scenario="steady_mtbf", seed=1).build()
        rec = TraceRecorder()
        run = session.run(40, recorder=rec)
        assert len(run.recoveries) > 0
        telemetry = session.telemetry
        meta = telemetry.meta_dict
        assert meta["scenario"] == "steady_mtbf"
        assert meta["engine"] == "dp"
        assert sum(telemetry.recovery_breakdown().values()) == pytest.approx(
            run.recovery_time_total, rel=1e-12
        )

    def test_recorded_session_bitwise_equal(self):
        base = dp_experiment(scenario="steady_mtbf", seed=1).build().run(40)
        rec = TraceRecorder()
        traced = dp_experiment(scenario="steady_mtbf", seed=1).build().run(
            40, recorder=rec,
        )
        assert base.losses == traced.losses
        assert base.iteration_times == traced.iteration_times

    def test_telemetry_round_trips_through_disk(self, tmp_path):
        session = dp_experiment(scenario="steady_mtbf", seed=1).build()
        session.run(30, recorder=TraceRecorder())
        path = session.telemetry.save(tmp_path / "t.jsonl")
        restored = TelemetryTrace.load(path)
        assert restored == session.telemetry
        assert restored.to_jsonl() == path.read_text()

    def test_fsdp_session_instrumented(self):
        exp = Experiment(
            name="obs-fsdp",
            model=ModelSpec(family="mlp", dim=8, hidden_dim=16, seed=5),
            cluster=ClusterSpec(num_machines=4, devices_per_machine=1),
            parallelism=ParallelismSpec(kind="fsdp", num_workers=4),
        )
        session = exp.build()
        rec = TraceRecorder()
        session.run(4, failures=one_failure(iteration=2), recorder=rec)
        trace = rec.trace("x")
        totals = trace.counter_totals()
        assert totals["trainer/iterations"] == 4.0
        assert totals["trainer/recoveries"] == 1.0
        assert sum(trace.recovery_breakdown().values()) == pytest.approx(
            session.trace.recovery_time_total, rel=1e-12
        )


class TestFleetIntegration:
    def run_fleet(self, recorder=None):
        from repro.api import demo_fleet_specs

        specs, failures = demo_fleet_specs(iterations=10)
        sim = FleetSimulator(
            specs, num_machines=8, devices_per_machine=4, num_spares=1,
            failures=failures, recorder=recorder,
        )
        return sim, sim.run()

    def test_fleet_round_telemetry(self):
        rec = TraceRecorder()
        sim, report = self.run_fleet(rec)
        trace = rec.trace("fleet")
        rounds = trace.spans_named("fleet/round")
        assert len(rounds) == report.rounds
        # rounds tile the fleet timeline
        assert rounds[0].sim == 0.0
        for prev, cur in zip(rounds, rounds[1:]):
            assert cur.sim == pytest.approx(prev.sim + prev.sim_dur)
        assert rounds[-1].sim + rounds[-1].sim_dur == pytest.approx(
            report.makespan
        )
        gauges = trace.last_gauges()
        assert {"fleet/queue_depth", "fleet/running_jobs",
                "fleet/preempted_workers", "fleet/spares_available",
                "fleet/spares_repairing"} <= set(gauges)
        totals = trace.counter_totals()
        assert totals["fleet/arrivals"] == len(sim.specs)
        assert totals["fleet/failures"] == len(sim.failures)
        for job in report.jobs:
            assert f"job/{job.name}/goodput" in gauges

    def test_fleet_report_unchanged_by_recorder(self):
        _, plain = self.run_fleet(None)
        _, traced = self.run_fleet(TraceRecorder())
        for a, b in zip(plain.jobs, traced.jobs):
            assert (a.name, a.samples, a.goodput, a.recovery_time,
                    a.lost_iterations) == \
                (b.name, b.samples, b.goodput, b.recovery_time,
                 b.lost_iterations)
        assert plain.makespan == traced.makespan


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCLI:
    def chaos_telemetry(self, tmp_path):
        from repro.cli import main
        out = tmp_path / "run.jsonl"
        code = main([
            "chaos", "--scenario", "steady_mtbf", "--seeds", "1",
            "--parallelism", "dp", "--machines", "4", "--iterations", "30",
            "--telemetry", str(out),
        ])
        assert code == 0
        return tmp_path / "run_seed0.jsonl"

    def test_chaos_writes_telemetry(self, tmp_path, capsys):
        path = self.chaos_telemetry(tmp_path)
        capsys.readouterr()
        trace = TelemetryTrace.load(path)
        assert trace.meta_dict["scenario"] == "steady_mtbf"
        assert trace.spans_named("trainer/iteration")

    def test_obs_summary_chrome_csv(self, tmp_path, capsys):
        from repro.cli import main
        path = self.chaos_telemetry(tmp_path)
        capsys.readouterr()

        assert main(["obs", str(path)]) == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out and "trainer/iteration" in out

        chrome = tmp_path / "run.trace.json"
        assert main(["obs", str(path), "--chrome", str(chrome)]) == 0
        capsys.readouterr()
        doc = json.loads(chrome.read_text())
        assert {"M", "X", "C"} <= {e["ph"] for e in doc["traceEvents"]}

        assert main(["obs", str(path), "--csv", "-"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("iteration,loss,sim_time_s,throughput")

    def test_fleet_telemetry_streams_to_disk(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "fleet.jsonl"
        assert main(["fleet", "--iterations", "8", "--telemetry",
                     str(out)]) == 0
        capsys.readouterr()
        trace = TelemetryTrace.load(out)
        assert trace.source == "fleet"
        assert trace.spans_named("fleet/round")
