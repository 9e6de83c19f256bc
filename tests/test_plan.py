"""repro.plan: the goodput-driven auto-planner.

Covers the tentpole contract end to end — candidate lowering,
prune-before-cost accounting, objective memoization, deterministic
seeded search, engine-validated rankings — plus the degenerate-input
hardening of ``repro.chaos.evaluate`` and ``repro.sim.endtoend`` that
rides along (a config search generates exactly those inputs).
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.api import (
    ClusterSpec,
    DataSpec,
    Experiment,
    FaultToleranceSpec,
    ModelSpec,
    ParallelismSpec,
    plan_workload,
)
from repro.chaos import (
    ChaosEvent,
    FailureTrace,
    evaluate_trace,
    evaluate_traces,
    sample_paired_traces,
)
from repro.errors import ConfigurationError
from repro.optim import (
    OPTIMIZER_FAMILIES,
    OPTIMIZER_TABLE1_BY_CLASS,
    optimizer_invertible,
)
from repro.plan import (
    AnnealSearcher,
    Candidate,
    ExperimentSearchSpace,
    GoodputObjective,
    PlanSearchError,
    Searcher,
    WorkloadSearchSpace,
    autoplan,
    autoplan_workload,
    get_searcher,
    register_searcher,
    searcher_names,
)
from repro.plan.search import ranked_scores
from repro.sim import (
    BERT_128,
    VIT_128_32,
    WIDE_RESNET_50,
    CostModel,
    EndToEndSimulator,
)


def _mlp_experiment(machines=4, devices=1, batch=16, **ft_kwargs):
    return Experiment(
        name="plan-test",
        model=ModelSpec(family="mlp", dim=4, hidden_dim=8, num_classes=4,
                        depth=max(2, machines), seed=5),
        data=DataSpec(kind="classification", batch_size=batch, seed=6),
        cluster=ClusterSpec(num_machines=machines,
                            devices_per_machine=devices),
        parallelism=ParallelismSpec(kind="dp", num_workers=machines),
        fault_tolerance=FaultToleranceSpec(**ft_kwargs),
    )


def _scripted_trace(num_crashes, horizon=10.0, machines=4):
    events = tuple(
        ChaosEvent(time_hours=(i + 1) * horizon / (num_crashes + 1),
                   machine_id=i % machines)
        for i in range(num_crashes)
    )
    return FailureTrace(scenario="scripted", seed=0, num_machines=machines,
                        horizon_hours=horizon, events=events)


# -- candidate lowering ----------------------------------------------------

class TestCandidate:
    def test_apply_sets_parallelism_and_recovery(self):
        base = _mlp_experiment()
        c = Candidate(kind="pp", num_workers=4, num_microbatches=2,
                      strategy="logging", checkpoint_interval=7,
                      parallel_recovery_degree=2, log_budget_gb=1.0)
        exp = c.apply(base)
        assert exp.parallelism.kind == "pp"
        assert exp.parallelism.num_workers == 4
        assert exp.parallelism.num_microbatches == 2
        ft = exp.fault_tolerance
        assert ft.strategy == "logging"
        assert ft.checkpoint_interval == 7
        assert ft.parallel_recovery_degree == 2
        assert ft.log_budget_bytes == 1e9
        # multi-failure safety: later crashes must never need a crashed
        # machine's dropped log records
        assert ft.checkpoint_after_recovery is True

    def test_apply_resets_explicit_placement(self):
        base = _mlp_experiment()
        base = base.with_(parallelism=dataclasses.replace(
            base.parallelism, placement=((0, 0), (1, 0), (2, 0), (3, 0))))
        c = Candidate(kind="dp", num_workers=2, num_microbatches=1,
                      strategy="replication", checkpoint_interval=10)
        assert c.apply(base).parallelism.placement is None

    def test_cost_key_ignores_budget_only(self):
        a = Candidate(kind="pp", num_workers=4, num_microbatches=2,
                      strategy="logging", checkpoint_interval=7,
                      log_budget_gb=1.0)
        b = dataclasses.replace(a, log_budget_gb=4.0)
        assert a.key() != b.key()
        assert a.cost_key() == b.cost_key()


# -- the search space: prune before costing --------------------------------

class TestSearchSpace:
    def test_prunes_are_recorded_with_reasons(self):
        space = ExperimentSearchSpace(
            _mlp_experiment(machines=2),
            worker_counts=(2, 4, 64),  # 64 > the 2 available slots
        )
        feasible = list(space.iter_feasible())
        assert feasible
        stats = space.stats
        assert stats.enumerated > stats.feasible
        assert stats.feasible == len(feasible)
        assert stats.pruned.get("placement", 0) > 0
        assert sum(stats.pruned.values()) + stats.feasible \
            == stats.enumerated

    def test_infeasible_candidates_never_reach_the_objective(self):
        space = ExperimentSearchSpace(
            _mlp_experiment(machines=2), worker_counts=(2, 64),
        )
        objective = GoodputObjective(space, "steady_mtbf", eval_seeds=1)
        scored = [objective.score(c) for c in space.iter_feasible()]
        # every evaluation corresponds to a survivor; pruned points paid 0
        assert objective.evaluations <= len(scored)
        assert space.stats.pruned.get("placement", 0) > 0

    def test_replication_needs_multi_machine_spread(self):
        space = ExperimentSearchSpace(
            _mlp_experiment(machines=2, devices=2))
        c = Candidate(kind="dp", num_workers=2, num_microbatches=1,
                      strategy="replication", checkpoint_interval=10)
        # 2 workers block-fill one 2-device machine: no surviving replica
        assert space.feasible(c) == "replica_coverage"

    def test_section_5_4_calculus_prunes_logging(self):
        # a huge batch through a tiny model logs far more activation
        # bytes than the model state is worth storing (the Section 5.4
        # log-to-state cap): the calculus, not the cost model, prunes it
        space = ExperimentSearchSpace(
            _mlp_experiment(machines=4, batch=512),
            microbatch_counts=(1,),
        )
        reasons = {
            c.label(): space.feasible(c)
            for c in space.candidates() if c.strategy == "logging"
        }
        assert "not_worth_it" in set(reasons.values())

    def test_chunk_level_log_volume_prunes_many_chunk_schedules(self):
        # v chunks per worker log v times the tensors into 1/v of the
        # bubble: two chunks still fit, eight are refused by Section
        # 5.4's numbers — interleaving as such is not banned
        from repro.parallel import programs, register_schedule

        def candidate(schedule):
            return Candidate(kind="pp", num_workers=2, num_microbatches=2,
                             strategy="logging", checkpoint_interval=10,
                             schedule=schedule)

        register_schedule("tiny_interleaved_v8",
                          programs.program_interleaved_1f1b,
                          virtual_stages=8)
        try:
            space = ExperimentSearchSpace(Experiment(
                model=ModelSpec(family="mlp", dim=4, hidden_dim=64,
                                num_classes=4, depth=20, seed=5),
                data=DataSpec(batch_size=1024, seed=6),
                cluster=ClusterSpec(num_machines=2, devices_per_machine=1),
                parallelism=ParallelismSpec(kind="dp", num_workers=2),
            ))
            assert space.feasible(candidate("1f1b")) is None
            assert space.feasible(candidate("interleaved_1f1b")) is None
            assert space.feasible(
                candidate("tiny_interleaved_v8")) == "not_worth_it"
            flat, v2, v8 = (
                space.to_experiment(candidate(name)).plan().feasibility
                for name in ("1f1b", "interleaved_1f1b",
                             "tiny_interleaved_v8"))
        finally:
            programs._REGISTRY.pop("tiny_interleaved_v8")
        assert v2.log_bytes_per_iteration == 2 * flat.log_bytes_per_iteration
        assert v8.log_bytes_per_iteration == 8 * flat.log_bytes_per_iteration
        assert flat.bubble_time > v2.bubble_time > v8.bubble_time
        assert v8.copy_time > v8.bubble_time and not v8.worth_it
        assert v8.reason == ("PCIe copy of 8.39 MB takes 0.699 ms, does "
                             "not fit in the 0.375 ms of bubble time")

    def test_selective_logging_budget_sees_chunk_level_volume(self):
        def stored(schedule):
            return Experiment(
                model=ModelSpec(family="mlp", dim=4, hidden_dim=64,
                                num_classes=4, depth=20, seed=5),
                data=DataSpec(batch_size=64),
                cluster=ClusterSpec(num_machines=4, devices_per_machine=1),
                parallelism=ParallelismSpec(
                    kind="pp", num_workers=4, num_microbatches=4,
                    schedule=schedule),
                fault_tolerance=FaultToleranceSpec(
                    strategy="logging", log_budget_bytes=1e9,
                    checkpoint_interval=10),
            ).plan().selective.storage_bytes

        assert stored("interleaved_1f1b") == 2 * stored("1f1b")

    def test_workload_space_default_is_published_row(self):
        space = WorkloadSearchSpace(BERT_128)
        d = space.default()
        assert d.num_workers == BERT_128.num_stages
        assert d.num_microbatches == BERT_128.num_microbatches
        assert d.checkpoint_interval == BERT_128.checkpoint_interval_iters

    def test_workload_space_replication_needs_invertible_optimizer(self):
        # BERT-128 trains with Adam: not invertible, and PP anyway
        space = WorkloadSearchSpace(BERT_128)
        c = Candidate(kind="pp", num_workers=128, num_microbatches=4,
                      strategy="replication", checkpoint_interval=100)
        assert space.feasible(c) == "strategy_kind"

    @pytest.mark.parametrize("optimizer", sorted(OPTIMIZER_TABLE1_BY_CLASS))
    def test_workload_replication_follows_table1(self, optimizer):
        # a published row names its optimizer by class; Table 1 decides
        w = dataclasses.replace(WIDE_RESNET_50, optimizer=optimizer)
        space = WorkloadSearchSpace(w)
        c = dataclasses.replace(space.default(), strategy="replication")
        invertible = optimizer_invertible(OPTIMIZER_TABLE1_BY_CLASS[optimizer])
        assert space.feasible(c) == (
            None if invertible else "optimizer_not_invertible")

    def test_workload_replication_refuses_unknown_optimizer(self):
        w = dataclasses.replace(WIDE_RESNET_50, optimizer="Adagrad")
        space = WorkloadSearchSpace(w)
        c = dataclasses.replace(space.default(), strategy="replication")
        assert space.feasible(c) == "optimizer_not_invertible"

    @pytest.mark.parametrize("family", sorted(OPTIMIZER_FAMILIES))
    def test_experiment_replication_follows_table1(self, family):
        base = _mlp_experiment(machines=2)
        space = ExperimentSearchSpace(base.with_(
            model=dataclasses.replace(base.model, optimizer=family)))
        c = Candidate(kind="dp", num_workers=2, num_microbatches=1,
                      strategy="replication", checkpoint_interval=10)
        assert space.feasible(c) == (
            None if OPTIMIZER_FAMILIES[family].invertible
            else "optimizer_not_invertible")

    def test_grid_size_matches_enumeration(self):
        space = ExperimentSearchSpace(_mlp_experiment(machines=2))
        assert space.grid_size() == len(list(space.candidates()))


# -- objective memoization -------------------------------------------------

class TestObjectiveMemoization:
    def test_budget_variants_share_one_evaluation(self):
        space = ExperimentSearchSpace(
            _mlp_experiment(machines=4),
            kinds=("pp",), worker_counts=(4,), microbatch_counts=(4,),
            intervals=(10,), recovery_degrees=(1,),
            log_budgets_gb=(None, 1.0, 4.0),
        )
        objective = GoodputObjective(space, "steady_mtbf", eval_seeds=1)
        scores = [objective.score(c) for c in space.iter_feasible()
                  if c.strategy == "logging"]
        assert len(scores) == 3
        assert objective.misses == 1
        assert objective.hits == 2
        assert objective.hit_rate == pytest.approx(2 / 3)
        # the memo returns the same numbers for every budget variant
        assert len({s.goodput_samples_per_sec for s in scores}) == 1

    def test_hit_rate_is_reported(self):
        space = ExperimentSearchSpace(
            _mlp_experiment(machines=4),
            kinds=("pp",), worker_counts=(4,), microbatch_counts=(4,),
            intervals=(10, 20), recovery_degrees=(1,),
            log_budgets_gb=(None, 2.0),
        )
        report = autoplan(space, "steady_mtbf", eval_seeds=1, top_k=3)
        assert report.cache_hits > 0
        assert report.cache_hit_rate == pytest.approx(
            report.cache_hits
            / (report.cache_hits + report.cache_misses))
        assert dict(report.to_dict()["cache"])["hits"] == report.cache_hits


class TestOneProgramPerShape:
    """Cadence / degree / budget / strategy variants of one pipeline shape
    share its generated program and its simulated makespan."""

    def test_generator_runs_once_per_shape_and_reports_same_bytes(self):
        from repro.api import experiment
        from repro.parallel import (
            build_program,
            programs,
            register_schedule,
            simulate_program,
        )

        runs = []

        def counted(p, m, v):
            runs.append((p, m))
            return programs.program_1f1b(p, m, v)

        def search():
            space = ExperimentSearchSpace(
                _mlp_experiment(machines=4), kinds=("pp",),
                worker_counts=(2, 4), microbatch_counts=(2, 4, 8),
                intervals=(10, 50, 200), recovery_degrees=(1, 2),
                log_budgets_gb=(None, 1.0), schedules=("counted_1f1b",),
            )
            report = autoplan(space, "rack_burst", searcher="exhaustive",
                              seed=3, eval_seeds=2, top_k=5)
            return space, report

        register_schedule("counted_1f1b", counted)
        try:
            programs._generate.cache_clear()
            experiment._default_makespan.cache_clear()
            space, cold = search()
            cold_runs = list(runs)
            _, warm = search()
            # past the cheap prunes = lowered to an Experiment
            lowered = [c for c in space.candidates()
                       if space.feasible(c) in (None, "not_worth_it")]
            # a built engine interprets the shared program and still
            # prices it with its own simulator call
            built = space.to_experiment(next(space.iter_feasible()))
            engine = built.build().engine
            assert engine.program() is build_program(
                "counted_1f1b", built.parallelism.num_workers,
                built.parallelism.num_microbatches)
            assert engine.timing() == simulate_program(
                engine.program(), engine.fwd_times, engine.bwd_times,
                engine.comm_time)
            assert engine.timing().iteration_time \
                == built._iteration_time_estimate
        finally:
            programs._REGISTRY.pop("counted_1f1b")
        shapes = {(c.num_workers, c.num_microbatches) for c in lowered}
        # several shapes, many variants of each: at the parent commit the
        # generator ran twice per lowered candidate
        assert len(shapes) > 1 and len(lowered) > 2 * len(shapes)
        assert sorted(cold_runs) == sorted(shapes)
        assert runs == cold_runs  # nothing after the cold search ran one
        assert warm.to_json() == cold.to_json()


def _pinned_space(**ft_kwargs):
    exp = Experiment(
        name="pin",
        model=ModelSpec(family="mlp", dim=8, hidden_dim=16, depth=4,
                        num_classes=4, seed=3),
        data=DataSpec(batch_size=16, seed=3),
        cluster=ClusterSpec(num_machines=4, devices_per_machine=2),
        parallelism=ParallelismSpec(kind="dp", num_workers=4),
        fault_tolerance=FaultToleranceSpec(**ft_kwargs),
    )
    return ExperimentSearchSpace(
        exp, kinds=("dp", "pp", "fsdp"), worker_counts=(2, 4),
        microbatch_counts=(1, 2), intervals=(10, 100),
        recovery_degrees=(1, 2))


class TestOnePricePerKey:
    """A cost key is priced once; a crash is one charge on that price."""

    def test_pricing_built_once_per_miss_and_never_per_crash(
            self, monkeypatch):
        from repro.sim import CostModel

        calls = {}

        def count(name):
            real = getattr(CostModel, name)

            def counted(self, *args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(self, *args, **kwargs)
            monkeypatch.setattr(CostModel, name, counted)

        for name in list(vars(CostModel)):
            if name == "pricing" or name.startswith("recovery_"):
                count(name)
        report = autoplan(_pinned_space(), "rack_burst",
                          searcher="exhaustive", eval_seeds=3)
        assert sum(s.mean_crashes for s in report.ranked) > 0
        assert calls == {"pricing": report.cache_misses}

    def test_reports_are_unchanged(self):
        def digest(report):
            return hashlib.sha256(report.to_json().encode()).hexdigest()

        report = autoplan(_pinned_space(), "rack_burst",
                          searcher="exhaustive", eval_seeds=3)
        assert digest(report) == ("76e389b86159e396e6b8a9318b13c82f"
                                  "d12f1ff193e666386ef039a733ee5801")
        report = autoplan_workload(BERT_128, "steady_mtbf", eval_seeds=2)
        assert digest(report) == ("31f3e3207b3ba5e089453c0a6b0d773e"
                                  "1cb9eb31b1f45e09893d07a3e2ceed00")

    def test_the_base_experiments_join_is_priced(self):
        """The planner charges each crash the join the engines will, not
        the cost model's default 5 s."""
        def baseline(**ft_kwargs):
            space = _pinned_space(**ft_kwargs)
            return GoodputObjective(space, "rack_burst", eval_seeds=3) \
                .score(space.default())

        slow, default = baseline(replacement_join_time=60.0), baseline()
        assert default.mean_crashes > 0
        assert slow.failure_free_hours == default.failure_free_hours
        assert slow.mean_hours > default.mean_hours


class TestAReplanPaysOnlyForPricing:
    """Each trace is sorted once, however many cost keys walk it, and a
    space judges each candidate once, however many searches it serves."""

    def test_walk_order_built_once_per_trace(self, monkeypatch):
        prop = FailureTrace.__dict__["walk_order"]
        real, built = prop.func, []

        def counted(trace):
            built.append(trace.seed)
            return real(trace)
        monkeypatch.setattr(prop, "func", counted)
        report = autoplan(_pinned_space(), "rack_burst",
                          searcher="exhaustive", eval_seeds=3)
        assert report.cache_misses > 1
        assert sorted(built) == [0, 1, 2]

    def test_warm_replan_judges_no_candidate_again(self, monkeypatch):
        space = _pinned_space()
        cold = autoplan(space, "rack_burst", searcher="exhaustive",
                        eval_seeds=2)
        judged = []
        real = ExperimentSearchSpace._feasibility_reason

        def counted(self, candidate):
            judged.append(candidate)
            return real(self, candidate)
        monkeypatch.setattr(ExperimentSearchSpace, "_feasibility_reason",
                            counted)
        warm = autoplan(space, "flaky_node", searcher="exhaustive",
                        eval_seeds=2)
        assert judged == []
        assert (warm.enumerated, warm.feasible, warm.pruned) == (
            cold.enumerated, cold.feasible, cold.pruned)
        fresh = autoplan(_pinned_space(), "flaky_node",
                         searcher="exhaustive", eval_seeds=2)
        assert judged and warm.to_json() == fresh.to_json()

    def test_memoised_winner_scores_as_when_priced_alone(self):
        space = _pinned_space()
        for scenario in ("rack_burst", "flaky_node"):
            report = autoplan(space, scenario, searcher="exhaustive",
                              eval_seeds=3)
            alone = GoodputObjective(_pinned_space(), scenario,
                                     eval_seeds=3).score(report.winner)
            assert alone == report.winner_score

    def test_warm_replan_walks_the_traces_twice(self, monkeypatch):
        """One batch for the baseline, one for every feasible key."""
        import repro.plan.objective as objective

        space = _pinned_space()
        autoplan(space, "rack_burst", searcher="exhaustive", eval_seeds=3)
        calls = []
        real = objective.evaluate_traces

        def counted(traces, prices):
            prices = list(prices)
            calls.append(len(prices))
            return real(traces, prices)
        monkeypatch.setattr(objective, "evaluate_traces", counted)
        warm = autoplan(space, "flaky_node", searcher="exhaustive",
                        eval_seeds=3)
        assert calls == [1, warm.cache_misses - 1]


def _bench_space() -> ExperimentSearchSpace:
    """The grid ``bench/plan.py`` searches (seed 1)."""
    exp = Experiment(
        name="autoplan_exhaustive",
        model=ModelSpec(family="mlp", dim=16, hidden_dim=64, depth=8,
                        num_classes=8, seed=1),
        data=DataSpec(batch_size=32, seed=1),
        cluster=ClusterSpec(num_machines=8, devices_per_machine=2),
        parallelism=ParallelismSpec(kind="dp", num_workers=8),
    )
    return ExperimentSearchSpace(
        exp, kinds=("dp", "pp", "fsdp"), worker_counts=(2, 4, 8, 16),
        microbatch_counts=(1, 2, 4, 8), intervals=(10, 50, 200),
        recovery_degrees=(1, 2, 4), log_budgets_gb=(None, 0.01),
        schedules=("gpipe", "1f1b", "interleaved_1f1b"))


class TestScoreAllIsSequentialScore:
    """Batching the scoring changes when keys are priced, not what."""

    def test_bench_grid_scores_as_one_call_per_candidate(self):
        space = _bench_space()
        candidates = [space.default(), *space.iter_feasible()]
        for scenario in ("rack_burst", "flaky_node"):
            batch = GoodputObjective(space, scenario, eval_seeds=8)
            sequential = GoodputObjective(space, scenario, eval_seeds=8)
            scores = batch.score_all(candidates)
            one_by_one = [sequential.score(c) for c in candidates]
            assert scores == one_by_one
            assert ranked_scores(scores) == ranked_scores(one_by_one)
            assert (batch.hits, batch.misses) == (
                sequential.hits, sequential.misses)
            assert list(batch._cache) == list(sequential._cache)
            # a second batch is all hits
            assert batch.score_all(candidates[:3]) == scores[:3]
            assert batch.misses == sequential.misses

    def test_seeded_anneal_report_is_unchanged(self):
        """Pinned before the anneal scored its draws and mutants in
        batches: the pool, the winner and the hit count hold."""
        space = _pinned_space()
        digests = []
        for scenario in ("rack_burst", "flaky_node"):
            report = autoplan(space, scenario, searcher="anneal", seed=11,
                              eval_seeds=3)
            digests.append(
                hashlib.sha256(report.to_json().encode()).hexdigest())
        assert digests == [
            "ac1e5a3635b3eee16e0e370efa4d3a2f179fa3412cad4da352a71b1c4f05434d",
            "2a1803173556ef31867d915e8acf9fb70fbb8ab0d4ab1ac3c7936dcefdaffd94",
        ]


# -- determinism -----------------------------------------------------------

class TestDeterminism:
    def test_autoplan_bitwise_deterministic_exhaustive(self):
        def run():
            space = ExperimentSearchSpace(
                _mlp_experiment(machines=4), intervals=(10, 50))
            return autoplan(space, "rack_burst", searcher="exhaustive",
                            seed=3, eval_seeds=2, top_k=5)
        a, b = run(), run()
        assert a.winner == b.winner
        assert a.to_json() == b.to_json()

    def test_autoplan_bitwise_deterministic_anneal(self):
        def run():
            space = ExperimentSearchSpace(
                _mlp_experiment(machines=4), intervals=(5, 10, 20, 50))
            return autoplan(space, "steady_mtbf", searcher="anneal",
                            seed=11, eval_seeds=1, top_k=5)
        a, b = run(), run()
        assert a.winner == b.winner
        assert a.to_json() == b.to_json()

    def test_anneal_seed_changes_exploration_not_validity(self):
        space = ExperimentSearchSpace(
            _mlp_experiment(machines=4), intervals=(5, 10, 20, 50))
        objective = GoodputObjective(space, "steady_mtbf", eval_seeds=1)
        searcher = AnnealSearcher(beam=3, generations=3)
        ranked = searcher.search(space, objective, seed=0)
        assert ranked == sorted(
            ranked, key=lambda s: (-s.goodput_samples_per_sec,
                                   s.candidate.key()))

    def test_report_json_round_trips(self):
        report = autoplan_workload(VIT_128_32, "flaky_node", eval_seeds=1,
                                   top_k=2)
        payload = json.loads(report.to_json())
        assert payload["scenario"] == "flaky_node"
        assert payload["pruning"]["enumerated"] >= \
            payload["pruning"]["feasible"]
        assert payload["ranked"][0]["label"] == report.winner.label()


# -- the ranking beats the naive default -----------------------------------

class TestWinnerQuality:
    @pytest.mark.parametrize("scenario", ["steady_mtbf", "flaky_node"])
    def test_workload_winner_never_loses_to_default(self, scenario):
        for workload in (WIDE_RESNET_50, BERT_128):
            report = autoplan_workload(workload, scenario, eval_seeds=2)
            assert (report.winner_score.goodput_samples_per_sec
                    >= report.baseline.goodput_samples_per_sec)

    def test_winner_strictly_beats_checkpoint_default_on_bert(self):
        report = autoplan_workload(BERT_128, "steady_mtbf", eval_seeds=2)
        assert report.winner.strategy == "logging"
        assert (report.winner_score.goodput_samples_per_sec
                > report.baseline.goodput_samples_per_sec)
        assert "samples/s" in report.why

    def test_baseline_outside_grid_is_still_a_contender(self):
        # the searched cadences exclude the default's: autoplan must
        # never recommend a regression
        space = ExperimentSearchSpace(
            _mlp_experiment(machines=2), kinds=("dp",),
            strategies=("checkpoint_only",), intervals=(1,))
        report = autoplan(space, "steady_mtbf", eval_seeds=1)
        assert (report.winner_score.goodput_samples_per_sec
                >= report.baseline.goodput_samples_per_sec)

    def test_empty_space_raises_plan_search_error(self):
        # batch 512 through the tiny model: every logging point dies on
        # the Section 5.4 log-to-state cap, leaving nothing feasible
        space = ExperimentSearchSpace(
            _mlp_experiment(machines=2, batch=512), kinds=("pp",),
            strategies=("logging",), microbatch_counts=(1,))
        with pytest.raises(PlanSearchError):
            autoplan(space, "steady_mtbf", eval_seeds=1)
        assert space.stats.feasible == 0
        assert space.stats.pruned.get("not_worth_it", 0) > 0


# -- engine validation -----------------------------------------------------

class TestEngineValidation:
    def test_validation_rows_are_paired_and_recorded(self):
        # the grid reaches cadence 200: replication there pays half the
        # default's safety-net stall and loses nothing on crashes, so
        # the winner strictly differs from the baseline
        space = ExperimentSearchSpace(
            _mlp_experiment(machines=4), kinds=("dp",),
            intervals=(50, 200))
        report = autoplan(space, "flaky_node", eval_seeds=1, top_k=2,
                          validate_top_k=1, validate_seeds=2,
                          validate_iterations=30)
        assert report.winner.key() != report.baseline.candidate.key()
        roles = [row.role for row in report.validation]
        assert roles[0] == "baseline"
        assert "winner" in roles
        for row in report.validation:
            assert len(row.measured_by_seed) == 2
            assert row.measured_goodput == pytest.approx(
                sum(row.measured_by_seed) / 2)
            assert row.telemetry_events > 0
        assert "engine validation" in report.describe()

    def test_validation_deterministic(self):
        def run():
            space = ExperimentSearchSpace(
                _mlp_experiment(machines=4), intervals=(10, 50))
            return autoplan(space, "drill_disjoint", eval_seeds=1,
                            top_k=2, validate_top_k=1, validate_seeds=1,
                            validate_iterations=30)
        assert run().to_json() == run().to_json()

    def test_workload_space_cannot_engine_validate(self):
        with pytest.raises(PlanSearchError):
            autoplan_workload(BERT_128, "steady_mtbf", eval_seeds=1,
                              top_k=1, validate_top_k=1)

    def test_winning_plan_carries_provenance(self):
        space = ExperimentSearchSpace(
            _mlp_experiment(machines=4), intervals=(10, 50))
        report = autoplan(space, "steady_mtbf", eval_seeds=1)
        plan = space.winning_plan(report)
        assert plan.provenance.startswith("autoplan:")
        assert "steady_mtbf" in plan.provenance
        assert "provenance" in plan.describe()
        # hand-composed plans stay unstamped
        assert _mlp_experiment().plan().provenance == "user"
        assert "provenance" not in _mlp_experiment().plan().describe()


# -- Experiment.autoplan ---------------------------------------------------

class TestExperimentAutoplan:
    def test_defaults_to_spec_scenario(self):
        exp = _mlp_experiment(machines=4, scenario="rack_burst")
        report = exp.autoplan(eval_seeds=1, kinds=("dp",),
                              intervals=(10, 50))
        assert report.scenario == "rack_burst"

    def test_space_options_forward(self):
        exp = _mlp_experiment(machines=4)
        report = exp.autoplan(eval_seeds=1, kinds=("dp",),
                              intervals=(25,))
        assert all(s.candidate.kind == "dp" for s in report.ranked
                   if s.candidate.key() != report.baseline.candidate.key())


# -- searcher registry -----------------------------------------------------

class TestSearcherRegistry:
    def test_builtins_present(self):
        assert {"exhaustive", "anneal"} <= set(searcher_names())

    def test_unknown_searcher_raises(self):
        with pytest.raises(ConfigurationError, match="unknown searcher"):
            get_searcher("does-not-exist")

    def test_register_requires_name(self):
        class Nameless(Searcher):
            pass
        with pytest.raises(ConfigurationError):
            register_searcher(Nameless)

    def test_registered_searcher_usable_by_autoplan(self):
        @register_searcher
        class DefaultOnly(Searcher):
            name = "default-only-test"

            def search(self, space, objective, seed=0):
                return [objective.score(space.default())]

        space = ExperimentSearchSpace(
            _mlp_experiment(machines=2), intervals=(10,))
        report = autoplan(space, "steady_mtbf",
                          searcher="default-only-test", eval_seeds=1)
        assert report.searcher == "default-only-test"
        assert report.winner == space.default()


# -- property: goodput monotone non-increasing in failure rate -------------

class TestGoodputMonotonicity:
    def test_replication_strictly_monotone_in_crash_count(self):
        # replication loses no work, so every extra crash can only add
        # recovery cost: strict per-trace monotonicity
        fractions = []
        for crashes in (0, 1, 2, 4, 8, 16):
            r = evaluate_trace(
                _scripted_trace(crashes), WIDE_RESNET_50,
                "swift_replication", interval=100,
            )
            fractions.append(r.goodput_fraction)
        assert fractions[0] == pytest.approx(1.0)
        assert all(a > b for a, b in zip(fractions, fractions[1:]))

    @pytest.mark.parametrize("method,workload", [
        ("swift_replication", WIDE_RESNET_50),
        ("swift_logging_pr", BERT_128),     # logging needs a pipeline
        ("global_checkpoint", WIDE_RESNET_50),
    ], ids=["replication", "logging", "checkpoint"])
    def test_mean_goodput_monotone_in_failure_rate(self, method,
                                                   workload):
        # the shared scenario name keeps the underlying RNG streams
        # identical, so a higher rate means strictly more (and earlier)
        # crashes per seed: mean goodput must not increase with rate
        from repro.chaos import PoissonMTBF, ScenarioSpec

        means = []
        for median_hours in (200.0, 50.0, 10.0, 2.0):
            spec = ScenarioSpec(
                name="mono-prop", description="monotonicity probe",
                processes=(PoissonMTBF(median_hours=median_hours),),
                horizon_hours=100.0,
            )
            traces = [spec.sample(seed, workload.num_machines)
                      for seed in range(5)]
            pricing = CostModel(workload, use_experiment_time=False) \
                .pricing(method)
            [results] = evaluate_traces(
                traces, [(pricing, workload.total_iterations)])
            means.append(sum(r.goodput_fraction for r in results)
                         / len(results))
        assert means == sorted(means, reverse=True)


# -- hardening: degenerate inputs raise ConfigurationError -----------------

class TestDegenerateInputs:
    def test_zero_interval_rejected(self):
        with pytest.raises(ConfigurationError, match="interval"):
            evaluate_trace(_scripted_trace(1), BERT_128,
                           "global_checkpoint", interval=0)

    def test_zero_parallel_degree_rejected(self):
        with pytest.raises(ConfigurationError, match="parallel_degree"):
            evaluate_trace(_scripted_trace(1), BERT_128,
                           "swift_logging_pr", parallel_degree=0)

    def test_zero_iteration_time_rejected(self):
        broken = dataclasses.replace(
            BERT_128, experiment_iteration_time=0.0,
            total_iterations=0, end_to_end_hours=0.0)
        with pytest.raises(ConfigurationError, match="iteration time"):
            evaluate_trace(_scripted_trace(1), broken,
                           "global_checkpoint")

    def test_single_machine_trace_evaluates(self):
        trace = _scripted_trace(2, machines=1)
        r = evaluate_trace(trace, WIDE_RESNET_50, "global_checkpoint")
        assert 0.0 < r.goodput_fraction <= 1.0

    def test_event_free_trace_is_failure_free(self):
        r = evaluate_trace(_scripted_trace(0), BERT_128,
                           "swift_logging_pr")
        assert r.goodput_fraction == pytest.approx(1.0)

    def test_empty_trace_batch_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            evaluate_traces([], [])

    def test_paired_traces_need_a_machine(self):
        with pytest.raises(ConfigurationError, match="num_machines"):
            sample_paired_traces("steady_mtbf", 0)

    def test_simulator_rejects_non_positive_mtbf(self):
        sim = EndToEndSimulator(WIDE_RESNET_50, repeats=1)
        with pytest.raises(ConfigurationError, match="median_tbf_hours"):
            sim.simulate("global_checkpoint", median_tbf_hours=-1.0)

    def test_simulator_zero_interval_workload_defaults(self):
        # a workload with interval 0 (unset) must not modulo-by-zero
        w = dataclasses.replace(WIDE_RESNET_50,
                                checkpoint_interval_iters=0,
                                total_iterations=500)
        sim = EndToEndSimulator(w, repeats=1)
        result = sim.simulate("global_checkpoint")
        assert result.mean_hours > 0

    def test_simulator_explicit_zero_interval_rejected(self):
        sim = EndToEndSimulator(WIDE_RESNET_50, repeats=1)
        with pytest.raises(ConfigurationError, match="interval"):
            sim.simulate("global_checkpoint", interval=0)

    def test_simulate_scenario_rejects_zero_seeds(self):
        sim = EndToEndSimulator(WIDE_RESNET_50, repeats=1)
        with pytest.raises(ConfigurationError, match="seed"):
            sim.simulate_scenario("steady_mtbf", "global_checkpoint",
                                  seeds=0)

    def test_zero_log_budget_plan_is_typed_error_or_plans(self):
        # a zero selective-logging budget is representable; it must
        # either plan (degenerate grouping) or raise the typed error --
        # never a ZeroDivisionError
        try:
            plan = plan_workload(BERT_128, log_budget_bytes=0.0)
        except ConfigurationError:
            return
        assert plan.selective is not None

    def test_objective_rejects_zero_eval_seeds(self):
        space = ExperimentSearchSpace(_mlp_experiment(machines=2))
        with pytest.raises(ConfigurationError, match="eval_seeds"):
            GoodputObjective(space, "steady_mtbf", eval_seeds=0)


# -- CLI: repro plan exit-code contract ------------------------------------

class TestPlanCli:
    def _main(self, argv, capsys):
        from repro.cli import main
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    def test_optimize_happy_path(self, capsys):
        code, out, _ = self._main(
            ["plan", "--optimize", "--workload", "vit", "--seeds", "1",
             "--top-k", "2"], capsys)
        assert code == 0
        assert "winner:" in out and "pruning:" in out

    def test_optimize_json_is_canonical(self, capsys):
        argv = ["plan", "--optimize", "--workload", "wrn", "--seeds",
                "1", "--json"]
        code, out, _ = self._main(argv, capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["scenario"] == "steady_mtbf"
        code2, out2, _ = self._main(argv, capsys)
        assert code2 == 0 and out2 == out  # byte-stable across runs

    def test_missing_budget_is_usage_error(self, capsys):
        code, _, err = self._main(["plan"], capsys)
        assert code == 2
        assert "budget-gb" in err

    def test_unknown_searcher_is_usage_error(self, capsys):
        code, _, err = self._main(
            ["plan", "--optimize", "--searcher", "nope"], capsys)
        assert code == 2
        assert "unknown searcher" in err

    def test_unknown_scenario_is_usage_error(self, capsys):
        code, _, err = self._main(
            ["plan", "--optimize", "--scenario", "not-a-scenario"],
            capsys)
        assert code == 2

    def test_empty_search_space_is_data_error(self, capsys, monkeypatch):
        import repro.plan as plan_pkg

        def boom(*args, **kwargs):
            raise PlanSearchError("no feasible candidate (test)")
        monkeypatch.setattr(plan_pkg, "autoplan_workload", boom)
        code, _, err = self._main(["plan", "--optimize"], capsys)
        assert code == 1
        assert "no feasible candidate" in err

    def test_selective_path_still_works(self, capsys):
        code, out, _ = self._main(
            ["plan", "--workload", "bert", "--budget-gb", "200"], capsys)
        assert code == 0
        assert "groups" in out

    def test_selective_json(self, capsys):
        code, out, _ = self._main(
            ["plan", "--workload", "bert", "--budget-gb", "200",
             "--json"], capsys)
        assert code == 0
        assert json.loads(out)["strategy"] == "logging"

    def test_selective_on_dp_workload_is_usage_error(self, capsys):
        code, _, err = self._main(
            ["plan", "--workload", "wrn", "--budget-gb", "200"], capsys)
        assert code == 2


# -- numpy rng plumbing ----------------------------------------------------

def test_mutation_stays_in_grid():
    space = ExperimentSearchSpace(
        _mlp_experiment(machines=4), intervals=(5, 10, 20))
    rng = np.random.default_rng(0)
    # start from a grid point (the default's cadence may sit outside)
    c = dataclasses.replace(space.default(), checkpoint_interval=5)
    for _ in range(200):
        c = space.mutate(c, rng)
        assert c.checkpoint_interval in space.intervals
        assert c.num_workers in space.worker_counts
        if c.strategy != "logging":
            assert c.parallel_recovery_degree == 1
            assert c.log_budget_gb is None
