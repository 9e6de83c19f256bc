"""repro.chaos: distributions, traces, scenarios, seed determinism.

The contract under test is the one the whole PR rides on: the same
``(ScenarioSpec, seed)`` pair always produces the identical
:class:`FailureTrace`, the trace round-trips through JSONL byte-stably,
and replaying a trace through real engines reproduces the original run
bitwise — losses, recovery counts, and ``TrainingTrace.goodput()``.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    ClusterSpec,
    DataSpec,
    Experiment,
    FaultToleranceSpec,
    ModelSpec,
    ParallelismSpec,
)
from repro.chaos import (
    BathtubMTBF,
    Cascade,
    ChaosEvent,
    FailureProcess,
    FailureTrace,
    FlakyNode,
    PoissonMTBF,
    RackBurst,
    ScenarioSpec,
    ScriptedEvents,
    StorageOutage,
    StragglerOnset,
    evaluate_scenario,
    evaluate_trace,
    get_scenario,
    method_for_strategy,
    register_scenario,
    scenario_names,
)
from repro.cli import _chaos_run, main as cli_main
from repro.cluster import FailurePhase, FailureSchedule, FailureSource
from repro.errors import ConfigurationError
from repro.sim import BERT_128, WIDE_RESNET_50, EndToEndSimulator, FleetSimulator
from repro.sim.fleet import FleetFailure

TRACES_DIR = Path(__file__).parent / "traces"

#: checked-in FailureTrace goldens (telemetry goldens belong to
#: tests/test_obs.py, serve WAL goldens to tests/test_serve.py,
#: schedule-program goldens to tests/test_pipeline_programs.py, the
#: trace-walk golden to tests/test_trace_walk.py)
FAILURE_TRACES = sorted(
    p for p in TRACES_DIR.glob("*.jsonl")
    if not p.stem.startswith(("telemetry", "serve_wal", "program", "walk"))
)

ISSUE_SCENARIOS = ("steady_mtbf", "rack_burst", "flaky_node",
                   "storage_outage", "cascading")


class TestDistributions:
    @pytest.mark.parametrize("process", [
        PoissonMTBF(median_hours=10.0),
        BathtubMTBF(),
        RackBurst(burst_rate_per_khour=30.0),
        Cascade(trigger_median_hours=20.0),
        FlakyNode(median_hours=5.0),
        StragglerOnset(onset_rate_per_khour=20.0),
        StorageOutage(outage_rate_per_khour=20.0),
    ], ids=lambda p: type(p).__name__)
    def test_deterministic_under_fixed_rng(self, process):
        a = process.events(np.random.default_rng(7), 4, 100.0)
        b = process.events(np.random.default_rng(7), 4, 100.0)
        assert a == b
        assert isinstance(process, FailureProcess)

    def test_poisson_rate_matches_empirical(self):
        p = PoissonMTBF(median_hours=17.0)
        counts = [
            len(p.events(np.random.default_rng(i), 4, 100.0))
            for i in range(300)
        ]
        assert np.mean(counts) == pytest.approx(
            p.rate_per_hour(4) * 100.0, rel=0.15
        )

    def test_rack_burst_is_correlated_and_bounded(self):
        p = RackBurst(burst_rate_per_khour=100.0, rack_size=2)
        events = p.events(np.random.default_rng(1), 4, 200.0)
        assert events, "expected at least one burst"
        # bursts land within the same rack (contiguous pair of machines)
        by_time: dict[float, list[int]] = {}
        for e in events:
            by_time.setdefault(round(e.time_hours, 1), []).append(e.machine_id)
        multi = [ms for ms in by_time.values() if len(ms) > 1]
        assert multi, "expected multi-machine bursts"
        for machines in multi:
            racks = {m // 2 for m in machines}
            assert len(racks) == 1
            assert len(machines) < 4  # never the whole cluster

    def test_flaky_node_concentrates_failures(self):
        p = FlakyNode(median_hours=5.0, machine_id=2)
        events = p.events(np.random.default_rng(3), 4, 100.0)
        assert events and all(e.machine_id == 2 for e in events)

    def test_straggler_and_outage_kinds(self):
        s = StragglerOnset(onset_rate_per_khour=100.0).events(
            np.random.default_rng(0), 4, 100.0
        )
        assert s and all(e.kind == "straggler" and e.magnitude > 1.0
                         for e in s)
        o = StorageOutage(outage_rate_per_khour=100.0).events(
            np.random.default_rng(0), 4, 100.0
        )
        assert o and all(e.kind == "storage_outage" and e.magnitude > 0
                         for e in o)

    def test_cascade_produces_chains(self):
        p = Cascade(trigger_median_hours=5.0, cascade_probability=0.8)
        events = p.events(np.random.default_rng(5), 6, 200.0)
        # with p=0.8 chains of length >= 2 are overwhelmingly likely
        assert len(events) > len(
            [e for e in events if e.time_hours in
             {ev.time_hours for ev in events[:1]}]
        )

    def test_rack_burst_rate_matches_empirical_on_tiny_cluster(self):
        """A 2-machine cluster can only lose one machine per burst, and
        the analytic rate must say so too."""
        p = RackBurst(burst_rate_per_khour=100.0, rack_size=2)
        counts = [
            len(p.events(np.random.default_rng(i), 2, 100.0))
            for i in range(300)
        ]
        assert np.mean(counts) == pytest.approx(
            p.rate_per_hour(2) * 100.0, rel=0.2
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PoissonMTBF(median_hours=0)
        with pytest.raises(ConfigurationError):
            RackBurst(rack_size=1)
        with pytest.raises(ConfigurationError):
            Cascade(cascade_probability=1.0)
        with pytest.raises(ConfigurationError):
            StragglerOnset(slowdown_min=0.5)


class TestPoissonMTBF:
    """The Section 7.3 failure model ``steady_mtbf`` draws from."""

    def test_median_gap_matches_target(self):
        events = PoissonMTBF(median_hours=17.0).events(
            np.random.default_rng(1), 4, 17.0 * 4000)
        gaps = np.diff([0.0] + [e.time_hours for e in events])
        # the median of exponential draws should approximate the target
        assert np.median(gaps) == pytest.approx(17.0, rel=0.1)

    def test_events_within_horizon_and_ordered(self):
        events = PoissonMTBF(median_hours=1.0).events(
            np.random.default_rng(2), 4, 100.0)
        times = [e.time_hours for e in events]
        assert all(0 < t < 100 for t in times)
        assert times == sorted(times)
        assert len(times) > 30  # ~100/1.44 expected

    def test_failing_machine_drawn_uniformly_in_range(self):
        events = PoissonMTBF(median_hours=1.0).events(
            np.random.default_rng(3), 4, 200.0)
        machines = [e.machine_id for e in events]
        assert all(0 <= m < 4 for m in machines)
        assert set(machines) == {0, 1, 2, 3}

    def test_per_machine_scales_rate_with_cluster(self):
        whole = PoissonMTBF(median_hours=17.0)
        each = PoissonMTBF(median_hours=17.0, per_machine=True)
        assert whole.rate_per_hour(8) == pytest.approx(np.log(2) / 17.0)
        assert each.rate_per_hour(8) == pytest.approx(8 * np.log(2) / 17.0)

    def test_crashes_land_between_iterations_by_default(self):
        events = PoissonMTBF(median_hours=1.0).events(
            np.random.default_rng(4), 2, 20.0)
        assert events
        assert {(e.phase, e.after_updates) for e in events} == {
            (FailurePhase.ITERATION_START.value, 0)}

    def test_mid_update_fraction_one_crashes_mid_update(self):
        events = PoissonMTBF(median_hours=1.0, mid_update_fraction=1.0
                             ).events(np.random.default_rng(4), 2, 20.0)
        assert events
        assert {e.phase for e in events} == {FailurePhase.MID_UPDATE.value}
        assert all(1 <= e.after_updates <= 3 for e in events)


class TestTrace:
    def _trace(self) -> FailureTrace:
        return get_scenario("rack_burst").sample(3, 4, horizon_iters=60)

    def test_jsonl_roundtrip_object_and_bytes(self):
        trace = self._trace()
        text = trace.to_jsonl()
        back = FailureTrace.from_jsonl(text)
        assert back == trace
        assert back.to_jsonl() == text  # byte-stable

    def test_save_load(self, tmp_path):
        trace = self._trace().with_meta(goodput="1.5", note="x")
        path = trace.save(tmp_path / "t.jsonl")
        assert FailureTrace.load(path) == trace
        assert FailureTrace.load(path).meta_dict["goodput"] == "1.5"

    def test_with_iterations_maps_and_preserves(self):
        spec = get_scenario("steady_mtbf")
        raw = spec.sample(0, 4)
        assert all(e.iteration is None for e in raw.events)
        mapped = raw.with_iterations(50)
        assert mapped.horizon_iters == 50
        assert all(0 <= e.iteration < 50 for e in mapped.events)
        # events already carrying an iteration (scripted) keep it
        drill = get_scenario("drill_disjoint").sample(0, 6)
        remapped = drill.with_iterations(7)
        assert [e.iteration for e in remapped.events] == [20, 20]

    def test_to_schedule_requires_mapping(self):
        with pytest.raises(ConfigurationError):
            get_scenario("steady_mtbf").sample(0, 4).to_schedule()

    def test_to_schedule_dedupes_and_leaves_survivor(self):
        events = tuple(
            ChaosEvent(time_hours=1.0, machine_id=m, iteration=5)
            for m in (0, 1, 2, 3, 1)  # duplicate machine 1
        )
        trace = FailureTrace("x", 0, 4, 10.0, events, horizon_iters=10)
        schedule = trace.to_schedule()
        fails = schedule.pop_due(5, FailurePhase.ITERATION_START)
        machines = [f.machine_id for f in fails]
        assert len(machines) == len(set(machines))
        assert len(machines) <= 3  # one survivor guaranteed

    def test_to_fleet_failures(self):
        trace = self._trace()
        rows = trace.to_fleet_failures()
        assert rows == sorted(rows, key=lambda f: (f.round, f.machine_id))
        assert all(isinstance(f, FleetFailure) for f in rows)
        assert len({(f.round, f.machine_id) for f in rows}) == len(rows)

    def test_schedule_is_failure_source(self):
        assert isinstance(self._trace().to_schedule(), FailureSource)
        assert isinstance(FailureSchedule(), FailureSource)

    def test_newer_version_rejected(self):
        with pytest.raises(ConfigurationError):
            FailureTrace("x", 0, 4, 10.0, (), version=99)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosEvent(time_hours=0.0, machine_id=0, kind="meteor")
        with pytest.raises(ConfigurationError):
            ChaosEvent(time_hours=0.0, machine_id=0, phase="lunch")


class TestScenarioRegistry:
    def test_issue_catalog_registered(self):
        names = scenario_names()
        for name in ISSUE_SCENARIOS:
            assert name in names

    def test_get_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            get_scenario("definitely_not_registered")

    def test_register_duplicate_raises(self):
        spec = get_scenario("steady_mtbf")
        with pytest.raises(ConfigurationError):
            register_scenario(spec)
        register_scenario(spec, replace=True)  # explicit replace is fine

    def test_spec_passthrough(self):
        spec = ScenarioSpec("tmp", "d", (PoissonMTBF(),))
        assert get_scenario(spec) is spec

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec("", "d", (PoissonMTBF(),))
        with pytest.raises(ConfigurationError):
            ScenarioSpec("x", "d", ())
        with pytest.raises(ConfigurationError):
            ScenarioSpec("x", "d", (PoissonMTBF(),), horizon_hours=0)

    def test_composition_is_stream_stable(self):
        """Adding a process must not perturb earlier processes' draws."""
        one = ScenarioSpec("stable", "d", (PoissonMTBF(median_hours=9.0),))
        two = ScenarioSpec("stable", "d", (
            PoissonMTBF(median_hours=9.0), FlakyNode(median_hours=3.0),
        ))
        a = one.sample(5, 4).events
        b = two.sample(5, 4).events
        # every event of the single-process trace appears unchanged
        assert set(a) <= set(b)

    def test_scripted_drills(self):
        trace = get_scenario("drill_cascading").sample(0, 6)
        assert [(e.iteration, e.machine_id, e.phase) for e in trace.events] \
            == [(15, 0, "backward"), (30, 5, "mid_update")]


class TestSeedDeterminism:
    """The satellite suite: seed => trace => run, all bitwise."""

    @pytest.mark.parametrize("name", ISSUE_SCENARIOS)
    def test_same_seed_identical_trace(self, name):
        spec = get_scenario(name)
        a = spec.sample(11, 4, horizon_iters=40)
        b = spec.sample(11, 4, horizon_iters=40)
        assert a == b
        assert a.to_jsonl() == b.to_jsonl()

    @pytest.mark.parametrize("name", ["steady_mtbf", "rack_burst"])
    def test_different_seed_different_trace(self, name):
        spec = get_scenario(name)
        assert spec.sample(0, 4) != spec.sample(1, 4)

    @pytest.mark.parametrize("parallelism", ["dp", "pp"])
    def test_same_seed_identical_goodput(self, parallelism):
        trace = get_scenario("rack_burst").sample(1, 4, horizon_iters=30)
        run1, batch, _ = _chaos_run(trace, parallelism, 4, 30, 10)
        run2, _, _ = _chaos_run(trace, parallelism, 4, 30, 10)
        assert run1.losses == run2.losses
        assert run1.goodput(batch) == run2.goodput(batch)
        assert run1.recovery_time_total == run2.recovery_time_total

    def test_replayed_trace_bitwise_equal_run(self, tmp_path):
        trace = get_scenario("cascading").sample(2, 4, horizon_iters=30)
        run1, batch, _ = _chaos_run(trace, "pp", 4, 30, 10)
        path = trace.save(tmp_path / "c.jsonl")
        replayed = FailureTrace.load(path)
        run2, _, _ = _chaos_run(replayed, "pp", 4, 30, 10)
        assert run1.losses == run2.losses  # bitwise, not approx
        assert run1.iteration_times == run2.iteration_times
        assert run1.goodput(batch) == run2.goodput(batch)

    def test_scenario_session_equals_explicit_schedule(self):
        """FaultToleranceSpec(scenario=...) == passing the schedule by hand."""
        ft = FaultToleranceSpec(checkpoint_interval=10,
                                scenario="rack_burst", scenario_seed=4)
        exp = Experiment(
            name="det",
            model=ModelSpec(family="mlp", dim=8, hidden_dim=16, seed=1),
            data=DataSpec(batch_size=16, seed=2),
            cluster=ClusterSpec(num_machines=4, devices_per_machine=1),
            parallelism=ParallelismSpec(kind="dp", num_workers=4),
            fault_tolerance=ft,
        )
        s1 = exp.build()
        t1 = s1.run(30)
        assert s1.chaos_trace is not None
        explicit = ft.resolve_scenario().sample(4, 4, horizon_iters=30)
        assert explicit == s1.chaos_trace
        s2 = exp.with_(fault_tolerance=FaultToleranceSpec(
            checkpoint_interval=10, checkpoint_after_recovery=True,
        )).build()
        t2 = s2.run(30, failures=explicit.to_schedule())
        assert t1.losses == t2.losses
        assert t1.goodput(16) == t2.goodput(16)

    def test_continuation_run_keeps_only_reachable_events(self):
        """run(k); run(n) must not record events the engine already
        trained past — chaos_trace holds what the call could inject."""
        exp = Experiment(
            name="cont",
            model=ModelSpec(family="mlp", dim=8, hidden_dim=16, seed=3),
            data=DataSpec(batch_size=16, seed=4),
            cluster=ClusterSpec(num_machines=4, devices_per_machine=1),
            parallelism=ParallelismSpec(kind="dp", num_workers=4),
            fault_tolerance=FaultToleranceSpec(
                checkpoint_interval=10, scenario="steady_mtbf",
                scenario_seed=0,
            ),
        )
        session = exp.build()
        session.run(30)
        first = session.chaos_trace
        assert all(e.iteration < 30 for e in first.events)
        run2 = session.run(60)
        second = session.chaos_trace
        assert all(30 <= e.iteration < 60 for e in second.events)
        # the [30, 60) events match a straight run(60)'s tail exactly
        full = exp.fault_tolerance.resolve_scenario().sample(
            0, 4, horizon_iters=60)
        assert second.events == full.after_iteration(30).events
        assert len(run2.recoveries) <= len(second.to_schedule())


class TestGoldenTraces:
    """Checked-in traces: distribution stability + bitwise replay."""

    @pytest.mark.parametrize("path", FAILURE_TRACES,
                             ids=lambda p: p.stem)
    def test_golden_trace_resamples_identically(self, path):
        golden = FailureTrace.load(path)
        fresh = get_scenario(golden.scenario).sample(
            golden.seed, golden.num_machines,
            horizon_iters=golden.horizon_iters,
        )
        # meta records the run outcome, which sampling does not produce
        assert fresh == golden.__class__(**{
            **golden.__dict__, "meta": (),
        })

    @pytest.mark.parametrize("path", FAILURE_TRACES,
                             ids=lambda p: p.stem)
    def test_golden_trace_replays_recorded_goodput(self, path):
        golden = FailureTrace.load(path)
        meta = golden.meta_dict
        run, batch, _ = _chaos_run(
            golden, meta["parallelism"], int(meta["machines"]),
            int(meta["iterations"]), int(meta["checkpoint_interval"]),
        )
        assert repr(run.goodput(batch)) == meta["goodput"]
        assert repr(run.losses[-1]) == meta["final_loss"]
        assert len(run.recoveries) == int(meta["recoveries"])


class TestEvaluate:
    def test_deterministic(self):
        a = evaluate_scenario("steady_mtbf", BERT_128,
                              "swift_logging_pr", seeds=range(2))
        b = evaluate_scenario("steady_mtbf", BERT_128,
                              "swift_logging_pr", seeds=range(2))
        assert [r.hours for r in a] == [r.hours for r in b]

    def test_paper_ordering_under_steady_mtbf(self):
        """The headline: logging beats checkpoint-only at paper scale."""
        logging = evaluate_scenario("steady_mtbf", BERT_128,
                                    "swift_logging_pr", seeds=range(3))
        ckpt = evaluate_scenario("steady_mtbf", BERT_128,
                                 "global_checkpoint", seeds=range(3))
        assert np.mean([r.goodput_fraction for r in logging]) \
            > np.mean([r.goodput_fraction for r in ckpt])

    def test_replication_loses_nothing(self):
        results = evaluate_scenario("rack_burst", WIDE_RESNET_50,
                                    "swift_replication", seeds=range(2))
        for r in results:
            assert r.num_crashes > 0
            assert r.goodput_fraction > 0.99

    def test_stragglers_and_outages_consumed(self):
        trace = get_scenario("stragglers").sample(0, 16, horizon_hours=800)
        r = evaluate_trace(trace, BERT_128, "global_checkpoint")
        # events landing after the run completes never fire
        assert 1 <= r.num_straggler_onsets <= len(trace.stragglers)
        base = evaluate_trace(
            FailureTrace("none", 0, 16, 800.0, ()),
            BERT_128, "global_checkpoint",
        )
        assert r.hours > base.hours  # chaos always costs time

    def test_method_for_strategy(self):
        assert method_for_strategy("logging") == "swift_logging_pr"
        assert method_for_strategy("checkpoint_only") == "global_checkpoint"

    def test_endtoend_simulate_scenario(self):
        sim = EndToEndSimulator(BERT_128, repeats=2)
        res = sim.simulate_scenario("swift_logging_pr", "steady_mtbf")
        assert res.mean_hours > res.failure_free_hours
        assert res.mean_failures > 0


class TestApiIntegration:
    def test_unknown_scenario_fails_eagerly(self):
        with pytest.raises(ConfigurationError):
            FaultToleranceSpec(scenario="not_a_scenario")

    def test_plan_predicts_scenario(self):
        exp = Experiment(
            name="p",
            model=ModelSpec(family="mlp", dim=8, hidden_dim=16),
            data=DataSpec(batch_size=16),
            cluster=ClusterSpec(num_machines=4, devices_per_machine=1),
            parallelism=ParallelismSpec(kind="dp", num_workers=4),
            fault_tolerance=FaultToleranceSpec(scenario="steady_mtbf"),
        )
        plan = exp.plan()
        assert plan.scenario == "steady_mtbf"
        assert plan.predicted_failure_rate_per_hour == pytest.approx(
            np.log(2) / 17.0
        )
        assert 0 < plan.expected_goodput_fraction <= 1
        assert "scenario:" in plan.describe()
        assert "steady_mtbf" in plan.describe()

    def test_custom_policy_goes_unpriced(self):
        from repro.core.policies import _REGISTRY, register_recovery_policy

        class Custom:
            name = "priced_by_nobody"

            def compatible(self, engine):
                return True

            def describe_requirements(self):
                return "anything"

            def build(self, ctx):  # pragma: no cover - never built
                raise AssertionError("plan() builds nothing")

        register_recovery_policy(Custom())
        try:
            plan = Experiment(
                model=ModelSpec(family="mlp", dim=8, hidden_dim=16),
                cluster=ClusterSpec(num_machines=4, devices_per_machine=1),
                parallelism=ParallelismSpec(kind="dp", num_workers=4),
                fault_tolerance=FaultToleranceSpec(
                    strategy="priced_by_nobody", scenario="steady_mtbf"),
            ).plan()
        finally:
            _REGISTRY.pop("priced_by_nobody")
        # no longer silently priced as checkpoint restart
        assert plan.expected_goodput_fraction is None
        assert plan.expected_failures > 0
        assert "not priced for policy 'priced_by_nobody'" in plan.describe()

    def test_plan_without_scenario_has_no_prediction(self):
        exp = Experiment(
            model=ModelSpec(family="mlp"),
            parallelism=ParallelismSpec(kind="dp", num_workers=4),
        )
        plan = exp.plan()
        assert plan.scenario is None
        assert "scenario:" not in plan.describe()

    def test_fleet_scenario_deterministic_and_replayable(self):
        from repro.api import demo_fleet_specs

        specs, _ = demo_fleet_specs(8)

        def run(**kw):
            sim = FleetSimulator(
                specs, num_machines=6, devices_per_machine=4,
                num_spares=1, **kw,
            )
            return sim, sim.run()

        sim1, rep1 = run(scenario="flaky_node", scenario_seed=2)
        sim2, rep2 = run(scenario="flaky_node", scenario_seed=2)
        assert sim1.chaos_trace == sim2.chaos_trace
        assert rep1.cluster_goodput == rep2.cluster_goodput
        # replaying the sampled trace reproduces the run
        _, rep3 = run(trace=sim1.chaos_trace)
        assert rep3.cluster_goodput == rep1.cluster_goodput
        assert rep3.total_failures == rep1.total_failures

    def test_fleet_rejects_scenario_and_trace_together(self):
        from repro.api import demo_fleet_specs

        specs, _ = demo_fleet_specs(4)
        trace = get_scenario("steady_mtbf").sample(0, 6, horizon_iters=4)
        with pytest.raises(ConfigurationError):
            FleetSimulator(specs, num_machines=6, devices_per_machine=4,
                           scenario="steady_mtbf", trace=trace)

    def test_demo_fleet_failures_come_from_registry(self):
        from repro.api import demo_fleet_specs

        _, failures = demo_fleet_specs(12)
        assert failures == [FleetFailure(round=4, machine_id=0),
                            FleetFailure(round=10, machine_id=2)]


class TestChaosCLI:
    def test_list(self, capsys):
        assert cli_main(["chaos", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ISSUE_SCENARIOS:
            assert name in out

    def test_run_and_replay_bitwise(self, tmp_path, capsys):
        out = str(tmp_path / "traces")
        assert cli_main([
            "chaos", "--scenario", "rack_burst", "--seeds", "2",
            "--iterations", "30", "--out", out,
        ]) == 0
        first = capsys.readouterr().out
        assert "mean goodput" in first
        trace_path = str(tmp_path / "traces" / "rack_burst_seed0.jsonl")
        assert cli_main(["chaos", "--trace", trace_path]) == 0
        assert "bitwise match" in capsys.readouterr().out

    def test_replay_detects_tampering(self, tmp_path, capsys):
        out = str(tmp_path / "traces")
        assert cli_main([
            "chaos", "--scenario", "steady_mtbf", "--seeds", "1",
            "--iterations", "30", "--out", out,
        ]) == 0
        capsys.readouterr()
        path = tmp_path / "traces" / "steady_mtbf_seed0.jsonl"
        trace = FailureTrace.load(path)
        trace.with_meta(goodput="0.0").save(path)
        assert cli_main(["chaos", "--trace", str(path)]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_requires_an_action(self, capsys):
        assert cli_main(["chaos"]) == 2

    def test_missing_trace_file_exits_one(self, capsys, tmp_path):
        # data problems are exit 1; usage errors stay exit 2
        missing = str(tmp_path / "nope.jsonl")
        assert cli_main(["chaos", "--trace", missing]) == 1
        assert "cannot read trace" in capsys.readouterr().err
        assert cli_main(["fleet", "--iterations", "4",
                         "--trace", missing]) == 1
        assert "cannot read trace" in capsys.readouterr().err

    def test_corrupt_trace_file_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"not a trace": true}\n')
        assert cli_main(["chaos", "--trace", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "cannot read trace" in err
        assert "Traceback" not in err

    def test_fig8_unknown_scenario_exits_two(self, capsys):
        assert cli_main(["fig8", "wrn", "--scenario", "bogus"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_fleet_scenario_flag(self, capsys):
        assert cli_main(["fleet", "--iterations", "4",
                         "--scenario", "steady_mtbf"]) == 0
        out = capsys.readouterr().out
        assert "scenario 'steady_mtbf'" in out

    def test_fig8_scenario_column(self, capsys):
        assert cli_main(["fig8", "wrn", "--scenario", "steady_mtbf",
                         "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "goodput@steady_mtbf" in out
