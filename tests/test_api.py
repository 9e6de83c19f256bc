"""The declarative experiment surface: specs -> plan -> session -> fleet.

Covers the Section 6 usability contract: eager validation errors, plan
determinism against the Section 3 chooser, bitwise-equal Session runs
vs hand-wired engines/trainers, and the fleet lowering round-trip.
"""

import numpy as np
import pytest

from repro.api import (
    ClusterSpec,
    DataSpec,
    Experiment,
    FaultToleranceSpec,
    FTStrategy,
    ModelSpec,
    ParallelismSpec,
    build_engine,
    demo_fleet_specs,
    plan_workload,
)
from repro.cluster import (
    Cluster,
    FailureEvent,
    FailurePhase,
    FailureSchedule,
)
from repro.core import (
    SwiftTrainer,
    TrainerConfig,
    choose_strategy,
    get_recovery_policy,
    recovery_policy_names,
    register_recovery_policy,
)
from repro.core.policies import _REGISTRY, RecoveryBundle
from repro.data import ClassificationTask, TokenTask
from repro.errors import ConfigurationError, RecoveryError
from repro.models import make_bert, make_mlp
from repro.nn import CrossEntropyLoss
from repro.optim import Adam, SGDMomentum
from repro.parallel import DataParallelEngine, PipelineEngine, schedule_names
from repro.sim import BERT_128, FleetSimulator, WIDE_RESNET_50
from repro.utils import state_equal


def dp_experiment(**ft_kwargs) -> Experiment:
    return Experiment(
        name="dp",
        model=ModelSpec(family="mlp", dim=16, hidden_dim=32, num_classes=4,
                        depth=2, seed=42, optimizer="sgd_momentum", lr=0.05),
        data=DataSpec(kind="classification", batch_size=32, seed=7),
        cluster=ClusterSpec(num_machines=2, devices_per_machine=2),
        parallelism=ParallelismSpec(kind="dp", num_workers=4),
        fault_tolerance=FaultToleranceSpec(checkpoint_interval=10,
                                           **ft_kwargs),
    )


def pp_experiment(**ft_kwargs) -> Experiment:
    return Experiment(
        name="pp",
        model=ModelSpec(family="bert", dim=16, depth=2, vocab_size=32,
                        max_len=8, num_heads=2, seed=9,
                        optimizer="adam", lr=5e-3),
        data=DataSpec(kind="tokens", batch_size=16, seed=5),
        cluster=ClusterSpec(num_machines=4, devices_per_machine=1),
        parallelism=ParallelismSpec(kind="pp", num_workers=4,
                                    partition_sizes=(1, 1, 1, 1),
                                    num_microbatches=4),
        fault_tolerance=FaultToleranceSpec(checkpoint_interval=10,
                                           **ft_kwargs),
    )


class TestSpecValidation:
    """Misconfigurations fail eagerly, before any engine exists."""

    def test_unknown_model_family(self):
        with pytest.raises(ConfigurationError, match="model family"):
            ModelSpec(family="resnext")

    def test_unknown_optimizer(self):
        with pytest.raises(ConfigurationError, match="optimizer family"):
            ModelSpec(optimizer="adagrad")

    def test_heads_must_divide_dim(self):
        with pytest.raises(ConfigurationError, match="num_heads"):
            ModelSpec(family="bert", dim=10, num_heads=4)

    def test_unknown_data_kind(self):
        with pytest.raises(ConfigurationError, match="data kind"):
            DataSpec(kind="audio")

    def test_cluster_bounds(self):
        with pytest.raises(ConfigurationError, match="num_machines"):
            ClusterSpec(num_machines=0)

    def test_unknown_parallelism(self):
        with pytest.raises(ConfigurationError, match="parallelism kind"):
            ParallelismSpec(kind="3d")

    def test_partition_entries_match_workers(self):
        with pytest.raises(ConfigurationError, match="partition_sizes"):
            ParallelismSpec(kind="pp", num_workers=4,
                            partition_sizes=(1, 1, 1))

    def test_unknown_strategy(self):
        with pytest.raises(ConfigurationError, match="strategy"):
            FaultToleranceSpec(strategy="undo_twice")

    def test_unknown_logging_mode(self):
        with pytest.raises(ConfigurationError, match="logging mode"):
            FaultToleranceSpec(logging_mode="turbo")

    def test_checkpoint_interval_bound_shared_with_trainer(self):
        with pytest.raises(ConfigurationError):
            FaultToleranceSpec(checkpoint_interval=0)

    def test_model_data_family_mismatch(self):
        with pytest.raises(ConfigurationError, match="data kind"):
            Experiment(model=ModelSpec(family="bert"),
                       data=DataSpec(kind="classification"))

    def test_placement_outside_cluster(self):
        with pytest.raises(ConfigurationError, match="outside"):
            Experiment(
                cluster=ClusterSpec(num_machines=2, devices_per_machine=2),
                parallelism=ParallelismSpec(
                    kind="dp", num_workers=2,
                    placement=((0, 0), (5, 0)),
                ),
            )

    def test_gang_does_not_fit(self):
        with pytest.raises(ConfigurationError, match="do not fit"):
            Experiment(
                cluster=ClusterSpec(num_machines=1, devices_per_machine=2),
                parallelism=ParallelismSpec(kind="dp", num_workers=8),
            )

    def test_partition_must_sum_to_model_layers(self):
        with pytest.raises(ConfigurationError, match="layers"):
            Experiment(
                model=ModelSpec(family="mlp", depth=2),  # 5 layers
                cluster=ClusterSpec(num_machines=4, devices_per_machine=1),
                parallelism=ParallelismSpec(kind="pp", num_workers=4,
                                            partition_sizes=(1, 1, 1, 1)),
            )

    def test_more_stages_than_layers(self):
        with pytest.raises(ConfigurationError, match="split"):
            Experiment(
                model=ModelSpec(family="mlp", depth=1),  # 3 layers
                cluster=ClusterSpec(num_machines=4, devices_per_machine=2),
                parallelism=ParallelismSpec(kind="pp", num_workers=8),
            )

    def test_batch_must_cover_microbatches(self):
        with pytest.raises(ConfigurationError, match="micro"):
            Experiment(
                data=DataSpec(batch_size=2),
                cluster=ClusterSpec(num_machines=4, devices_per_machine=1),
                parallelism=ParallelismSpec(kind="pp", num_workers=4,
                                            num_microbatches=4),
            )

    def test_fsdp_needs_two_machines(self):
        with pytest.raises(ConfigurationError, match=">= 2 machines"):
            Experiment(
                cluster=ClusterSpec(num_machines=1, devices_per_machine=4),
                parallelism=ParallelismSpec(kind="fsdp", num_workers=4),
            )

    def test_fsdp_incremental_checkpoints_rejected(self):
        # sharded workers keep no dirty-key reports; without this the
        # first checkpoint died with an AttributeError
        with pytest.raises(ConfigurationError, match="incremental"):
            Experiment(
                parallelism=ParallelismSpec(kind="fsdp", num_workers=4),
                fault_tolerance=FaultToleranceSpec(
                    incremental_checkpoints=True),
            )

    def test_strategy_parallelism_mismatch_is_eager(self):
        with pytest.raises(ConfigurationError, match="logging"):
            dp_experiment(strategy="logging")
        with pytest.raises(ConfigurationError, match="replication"):
            pp_experiment(strategy="replication")

    def test_zero_bandwidth_rejected_not_silently_defaulted(self):
        with pytest.raises(ConfigurationError, match="pcie_bw"):
            ClusterSpec(pcie_bw=0.0)
        assert ClusterSpec(pcie_bw=123.0).bandwidth_model().pcie == 123.0

    def test_explicit_replication_needs_second_machine(self):
        exp = Experiment(
            cluster=ClusterSpec(num_machines=1, devices_per_machine=4),
            parallelism=ParallelismSpec(kind="dp", num_workers=4),
            fault_tolerance=FaultToleranceSpec(strategy="replication"),
        )
        with pytest.raises(ConfigurationError, match="surviving replica"):
            exp.plan()


class TestPlan:
    """plan() is deterministic and matches the Section 3 chooser."""

    def test_dp_auto_matches_choose_strategy(self):
        plan = dp_experiment().plan()
        assert plan.strategy is FTStrategy.REPLICATION
        assert plan.strategy is choose_strategy(
            plan.layout, plan.feasibility, optimizer_name="SGD"
        )

    def test_pp_auto_matches_choose_strategy(self):
        plan = pp_experiment().plan()
        assert plan.strategy is FTStrategy.LOGGING
        assert plan.feasibility is not None and plan.feasibility.worth_it
        assert plan.strategy is choose_strategy(
            plan.layout, plan.feasibility, optimizer_name="Adam"
        )

    def test_plan_is_deterministic(self):
        a, b = dp_experiment().plan(), dp_experiment().plan()
        assert a.strategy is b.strategy
        assert a.placement == b.placement
        assert a.model_state_bytes == b.model_state_bytes
        assert a.describe() == b.describe()

    def test_non_invertible_optimizer_blocks_replication(self):
        # AMSGrad's ew_max is not invertible (Table 1): the chain must
        # fall through to checkpoint-only for a DP layout
        exp = dp_experiment().with_(
            model=ModelSpec(family="mlp", dim=16, hidden_dim=32,
                            num_classes=4, depth=2, seed=42,
                            optimizer="amsgrad"),
        )
        assert exp.plan().strategy is FTStrategy.CHECKPOINT_ONLY

    def test_single_machine_dp_falls_back(self):
        exp = Experiment(
            cluster=ClusterSpec(num_machines=1, devices_per_machine=4),
            parallelism=ParallelismSpec(kind="dp", num_workers=4),
        )
        assert exp.plan().strategy is FTStrategy.CHECKPOINT_ONLY

    def test_explicit_strategy_reported(self):
        plan = dp_experiment(strategy="checkpoint_only").plan()
        assert plan.strategy is FTStrategy.CHECKPOINT_ONLY
        assert plan.strategy_source == "explicit"

    @staticmethod
    def pp_on(schedule: str) -> Experiment:
        return Experiment(
            model=ModelSpec(family="mlp", dim=8, hidden_dim=16, depth=8,
                            optimizer="adam"),
            data=DataSpec(batch_size=16),
            cluster=ClusterSpec(num_machines=2, devices_per_machine=1),
            parallelism=ParallelismSpec(
                kind="pp", num_workers=2, num_microbatches=4,
                schedule=schedule),
            fault_tolerance=FaultToleranceSpec(checkpoint_interval=4),
        )

    @pytest.mark.parametrize("schedule", schedule_names())
    def test_pp_auto_is_the_section3_chain_on_every_schedule(self, schedule):
        """No schedule is an exception: 'auto' reads the raw Section 5.4
        verdict, interleaved pipelines included."""
        exp = self.pp_on(schedule)
        plan = exp.plan()
        assert plan.feasibility == exp._logging_feasibility()
        assert plan.strategy is choose_strategy(
            plan.layout, exp._logging_feasibility(),
            optimizer_name=exp.model.table1_optimizer,
        )

    def test_interleaved_auto_logs_and_recovers_bitwise(self):
        session = self.pp_on("interleaved_1f1b").build()
        assert session.plan.strategy is FTStrategy.LOGGING
        assert type(session.recovery).__name__ == "LoggingRecovery"
        trace = session.run(8, failures=FailureSchedule(
            [FailureEvent(1, 6, FailurePhase.BACKWARD)]))
        [report] = trace.recoveries
        assert (report.strategy, report.lost_iterations) == ("logging", 2)
        reference = self.pp_on("interleaved_1f1b").build()
        reference.run(8)
        losses = lambda t: dict(zip(t.iteration_numbers, t.losses))  # noqa: E731
        assert losses(trace) == losses(reference.trace)
        assert all(
            np.array_equal(value, session.engine.full_state()[sid][key])
            for sid, state in reference.engine.full_state().items()
            for key, value in state.items())

    def test_default_placement_block_fills(self):
        plan = dp_experiment().plan()
        assert plan.placement == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_describe_mentions_the_decisions(self):
        text = pp_experiment().plan().describe()
        assert "logging" in text and "checkpoints" in text
        assert "log volume" in text

    def test_workload_plans(self):
        assert plan_workload(WIDE_RESNET_50).strategy \
            is FTStrategy.REPLICATION
        plan = plan_workload(BERT_128, log_budget_bytes=200e9,
                             checkpoint_interval=100)
        assert plan.strategy is FTStrategy.LOGGING
        assert plan.selective is not None
        assert plan.selective.plan.num_groups >= 2
        with pytest.raises(ConfigurationError):
            build_engine(plan)  # analytic plans are not buildable


class TestSessionBitwise:
    """Session.run == hand-wired SwiftTrainer, bit for bit."""

    DP_FAILURE = dict(machine_id=1, iteration=10,
                      phase=FailurePhase.MID_UPDATE, after_updates=2)

    def test_dp_session_equals_hand_wired(self):
        session = dp_experiment().build()
        trace = session.run(
            24, failures=FailureSchedule([FailureEvent(**self.DP_FAILURE)])
        )

        cluster = Cluster(num_machines=2, devices_per_machine=2)
        engine = DataParallelEngine(
            cluster,
            model_factory=lambda: make_mlp(16, 32, 4, depth=2, seed=42),
            opt_factory=lambda m: SGDMomentum(m, lr=0.05, momentum=0.9),
            loss_factory=CrossEntropyLoss,
            task=ClassificationTask(dim=16, num_classes=4, batch_size=32,
                                    seed=7),
            placement=[(0, 0), (0, 1), (1, 0), (1, 1)],
        )
        trainer = SwiftTrainer(engine, TrainerConfig(checkpoint_interval=10))
        ref = trainer.train(
            24, failures=FailureSchedule([FailureEvent(**self.DP_FAILURE)])
        )
        assert np.array_equal(ref.losses, trace.losses)
        assert np.array_equal(ref.iteration_times, trace.iteration_times)
        assert np.array_equal(ref.wall_times, trace.wall_times)
        assert len(ref.recoveries) == len(trace.recoveries) == 1

    def test_pp_session_equals_hand_wired(self):
        failure = FailureEvent(2, 15, FailurePhase.FORWARD)
        session = pp_experiment().build()
        trace = session.run(30, failures=FailureSchedule([failure]))

        cluster = Cluster(num_machines=4, devices_per_machine=1)
        engine = PipelineEngine(
            cluster,
            model_factory=lambda: make_bert(
                vocab_size=32, max_len=8, dim=16, depth=2, num_heads=2,
                seed=9,
            ),
            partition_sizes=[1, 1, 1, 1],
            placement=[(0, 0), (1, 0), (2, 0), (3, 0)],
            num_microbatches=4,
            opt_factory=lambda m: Adam(m, lr=5e-3),
            loss_factory=CrossEntropyLoss,
            task=TokenTask(vocab_size=32, seq_len=8, batch_size=16, seed=5),
        )
        trainer = SwiftTrainer(engine, TrainerConfig(checkpoint_interval=10))
        ref = trainer.train(30, failures=FailureSchedule([failure]))
        assert np.array_equal(ref.losses, trace.losses)
        assert np.array_equal(ref.wall_times, trace.wall_times)

    def test_fsdp_session_recovers(self):
        session = Experiment(
            model=ModelSpec(family="mlp", dim=8, hidden_dim=16,
                            num_classes=4, seed=7, optimizer="adam",
                            lr=0.01),
            data=DataSpec(batch_size=16, seed=3),
            parallelism=ParallelismSpec(kind="fsdp", num_workers=4),
        ).build()
        failures = FailureSchedule([
            FailureEvent(1, 6, FailurePhase.MID_UPDATE, after_updates=3)
        ])
        trace = session.run(12, failures=failures)
        assert len(trace.recoveries) == 1
        assert len(trace.losses) == 12
        assert session.engine.mirrors_consistent()
        assert session.engine.full_params_consistent()
        # sharded plans run through the trainer like every other engine,
        # so they get the start + periodic global checkpoints too
        assert isinstance(session.trainer, SwiftTrainer)
        assert session.trainer.strategy is FTStrategy.REPLICATION
        assert [it for it, _ in session.trace.checkpoints] == [0]

    def test_fsdp_plan_no_engine_can_run_runs_and_recovers(self):
        # AMSGrad cannot undo, so the chain leaves checkpoint_only — which
        # a sharded engine restores from like every other: what plan()
        # chooses, build() runs
        exp = Experiment(
            model=ModelSpec(optimizer="amsgrad"),
            parallelism=ParallelismSpec(kind="fsdp", num_workers=4),
            fault_tolerance=FaultToleranceSpec(checkpoint_interval=4),
        )
        assert exp.plan().strategy is FTStrategy.CHECKPOINT_ONLY
        ref = exp.build()
        ref.run(10)
        session = exp.build()
        trace = session.run(10, failures=FailureSchedule([
            FailureEvent(1, 6, FailurePhase.MID_UPDATE, after_updates=3)
        ]))
        (report,) = trace.recoveries
        assert report.strategy == "global_checkpoint_restart"
        assert report.lost_iterations == 2
        for got, want in zip(session.engine.workers, ref.engine.workers):
            assert state_equal(got.full_state(), want.full_state()), got.rank
        # iterations 4 and 5 ran twice, to the same losses
        assert trace.iteration_numbers == [0, 1, 2, 3, 4, 5, 4, 5, 6, 7, 8, 9]
        assert trace.losses[6:] == ref.trace.losses[4:]
        assert trace.losses[:6] == ref.trace.losses[:6]
        assert session.engine.mirrors_consistent()
        assert session.engine.full_params_consistent()

    def test_fsdp_checkpoint_round_trips_every_shard(self):
        session = Experiment(
            model=ModelSpec(family="mlp", dim=8, hidden_dim=16,
                            num_classes=4, seed=7, optimizer="adam",
                            lr=0.01),
            data=DataSpec(batch_size=16, seed=3),
            parallelism=ParallelismSpec(kind="fsdp", num_workers=4),
            fault_tolerance=FaultToleranceSpec(checkpoint_interval=3),
        ).build()
        session.run(4)  # checkpoints at 0 and 3, one more step after
        assert [it for it, _ in session.trace.checkpoints] == [0, 3]
        session.trainer.take_checkpoint()
        owned = 0
        for worker in session.engine.workers:
            saved, _ = session.trainer.checkpoints.load(worker.rank)
            live = {
                f"{name}/{key}": value
                for name in session.engine.plan.params_owned_by(worker.rank)
                for key, value in worker.shard_state(name).items()
            }
            assert saved.keys() == live.keys()
            for key in live:
                assert np.array_equal(saved[key], live[key])
                assert saved[key].dtype == live[key].dtype
            owned += len(live)
        assert owned > 0

    def test_session_runs_the_planned_strategy(self):
        # auto on a single-machine DP layout plans checkpoint_only; the
        # session must run that decision, not the engine-default
        # replication (which could not recover the machine's failure)
        exp = Experiment(
            model=ModelSpec(family="mlp", dim=8, hidden_dim=16,
                            num_classes=4, seed=1),
            data=DataSpec(batch_size=16, seed=2),
            cluster=ClusterSpec(num_machines=1, devices_per_machine=4),
            parallelism=ParallelismSpec(kind="dp", num_workers=4),
            fault_tolerance=FaultToleranceSpec(checkpoint_interval=4),
        )
        assert exp.plan().strategy is FTStrategy.CHECKPOINT_ONLY
        session = exp.build()
        assert session.trainer.strategy is FTStrategy.CHECKPOINT_ONLY
        failures = FailureSchedule([
            FailureEvent(0, 6, FailurePhase.FORWARD)
        ])
        trace = session.run(10, failures=failures)
        assert trace.recoveries[0].strategy == "global_checkpoint_restart"
        # restart rolled back to the iteration-4 checkpoint, so the lost
        # iterations were recomputed — that is the strategy's signature
        assert trace.recoveries[0].lost_iterations > 0
        assert session.engine.iteration == 10

    def test_submitted_job_matches_session_numerics(self):
        # same spec, same lr: the fleet-built engine must train with the
        # optimizer the session would build (declared optimizer, lr=None
        # -> class default on BOTH paths)
        from repro.jobs import Job

        exp = Experiment(
            name="fidelity",
            model=ModelSpec(family="mlp", dim=8, hidden_dim=16,
                            num_classes=4, seed=1,
                            optimizer="sgd_momentum"),  # lr=None
            data=DataSpec(batch_size=16, seed=2),
            cluster=ClusterSpec(num_machines=2, devices_per_machine=1),
            parallelism=ParallelismSpec(kind="dp", num_workers=2),
        )
        session = exp.build()
        job = Job(exp.to_job_spec(6))
        job.start(Cluster(num_machines=2, devices_per_machine=1),
                  [(0, 0), (1, 0)])
        session_lr = session.engine.workers[0].optimizer.lr
        job_lr = job.engine.workers[0].optimizer.lr
        assert session_lr == job_lr
        session.run(6)
        for _ in range(6):
            job.step()
        assert np.array_equal(session.trace.losses,
                              job.trainer.trace.losses)

    def test_step_is_cooperative(self):
        session = dp_experiment().build()
        first = session.step()
        assert first.iteration == 0 and not first.failed
        assert session.engine.iteration == 1
        assert len(session.trace.losses) == 1

    def test_step_honors_spec_max_recoveries(self):
        """step() must enforce the spec's limit, not the trainer default
        that only train() used to overwrite."""
        session = dp_experiment(max_recoveries=1).build()
        failures = FailureSchedule([
            FailureEvent(1, 1, FailurePhase.FORWARD),
            FailureEvent(1, 2, FailurePhase.FORWARD),
        ])
        while session.engine.iteration < 2:
            session.step(failures)
        assert len(session.trace.recoveries) == 1
        with pytest.raises(RecoveryError, match="too many recoveries"):
            session.step(failures)


class TestFleetLowering:
    """submit()/to_job_spec round-trips through the jobs scheduler."""

    def test_to_job_spec_maps_fields(self):
        spec = dp_experiment().to_job_spec(40, priority=3, elastic=True,
                                           min_workers=2)
        assert spec.parallelism == "dp" and spec.num_workers == 4
        assert spec.iterations == 40 and spec.priority == 3
        assert spec.elastic and spec.min_workers == 2
        assert spec.dim == 16 and spec.hidden_dim == 32
        assert spec.optimizer == "sgd_momentum" and spec.lr == 0.05
        assert spec.seed == 42 and spec.task_seed == 7

    def test_unsupported_workloads_rejected(self):
        with pytest.raises(ConfigurationError, match="fleet submission"):
            pp_experiment().to_job_spec(10)  # bert/tokens not expressible
        fsdp = Experiment(
            parallelism=ParallelismSpec(kind="fsdp", num_workers=4),
        )
        with pytest.raises(ConfigurationError, match="fleet submission"):
            fsdp.to_job_spec(10)

    @pytest.mark.parametrize("spec_attr, field, value", [
        ("parallelism", "schedule", "gpipe"),
        ("parallelism", "partition_sizes", (1, 1, 1, 6)),
        ("parallelism", "comm_time", 1e-3),
        ("parallelism", "virtual_stages", 1),
        ("fault_tolerance", "parallel_recovery_degree", 2),
        ("fault_tolerance", "replacement_join_time", 9.0),
        ("fault_tolerance", "checkpoint_at_start", False),
        ("fault_tolerance", "max_recoveries", 3),
        ("fault_tolerance", "incremental_full_every", 2),
        ("fault_tolerance", "pooled_messaging", False),
        ("fault_tolerance", "logging_mode", "sync"),
        ("fault_tolerance", "log_budget_bytes", 1e6),
        ("data", "noise", 0.1),
        ("data", "loss", "mse"),
        ("model", "max_len", 16),
    ])
    def test_to_job_spec_rejects_what_a_job_spec_cannot_carry(
        self, spec_attr, field, value
    ):
        from dataclasses import replace

        exp = Experiment(
            model=ModelSpec(family="mlp", dim=8, hidden_dim=16, depth=4),
            data=DataSpec(batch_size=16),
            cluster=ClusterSpec(num_machines=4, devices_per_machine=1),
            parallelism=ParallelismSpec(kind="pp", num_workers=4),
        )
        # defaults lower fine, and so does anything said about what the
        # fleet decides for every job: cluster, placement, the failures
        # it injects, the checkpoint prefix and re-baselining
        assert exp.with_(
            cluster=ClusterSpec(num_machines=2, devices_per_machine=2,
                                pcie_bw=2e5),
            parallelism=replace(exp.parallelism, placement=(
                (1, 1), (1, 0), (0, 1), (0, 0))),
            fault_tolerance=FaultToleranceSpec(
                scenario="steady_mtbf", scenario_seed=3,
                checkpoint_after_recovery=False, checkpoint_prefix="mine"),
        ).to_job_spec(5) == exp.to_job_spec(5)
        changed = exp.with_(**{
            spec_attr: replace(getattr(exp, spec_attr), **{field: value})
        })
        with pytest.raises(ConfigurationError,
                           match=rf"cannot express {spec_attr}\.{field}="):
            changed.to_job_spec(5)

    def test_to_job_spec_names_every_dropped_field(self):
        exp = Experiment(
            model=ModelSpec(family="mlp", depth=4),
            cluster=ClusterSpec(num_machines=4, devices_per_machine=1),
            parallelism=ParallelismSpec(
                kind="pp", schedule="gpipe", partition_sizes=(1, 1, 1, 6),
                comm_time=1e-3),
            fault_tolerance=FaultToleranceSpec(
                parallel_recovery_degree=2, replacement_join_time=9.0,
                checkpoint_at_start=False, max_recoveries=3),
        )
        with pytest.raises(ConfigurationError) as err:
            exp.to_job_spec(5)
        for name in ("schedule", "partition_sizes", "comm_time",
                     "parallel_recovery_degree", "replacement_join_time",
                     "checkpoint_at_start", "max_recoveries"):
            assert name in str(err.value)

    def test_round_trip_through_scheduler(self):
        exp = Experiment(
            name="rt",
            model=ModelSpec(family="mlp", dim=8, hidden_dim=16,
                            num_classes=4, depth=2, seed=11),
            data=DataSpec(batch_size=16, seed=11),
            cluster=ClusterSpec(num_machines=3, devices_per_machine=2),
            parallelism=ParallelismSpec(kind="dp", num_workers=4),
            fault_tolerance=FaultToleranceSpec(checkpoint_interval=5),
        )
        sim = FleetSimulator(
            [exp.to_job_spec(8)],
            num_machines=3, devices_per_machine=2, num_spares=1,
        )
        report = sim.run()
        (stats,) = report.jobs
        assert stats.state == "completed"
        assert stats.iterations == 8
        assert stats.samples == 8 * 16

    def test_session_submit_returns_spec_or_job(self):
        from repro.jobs import Scheduler

        session = dp_experiment().build()
        spec = session.submit(12)
        assert spec.iterations == 12

        cluster = Cluster(num_machines=2, devices_per_machine=2)
        scheduler = Scheduler(cluster)
        job = session.submit(12, scheduler=scheduler)
        assert job.spec == spec
        assert job.name in scheduler.jobs

    def test_demo_fleet_completes(self):
        specs, failures = demo_fleet_specs(12)
        report = FleetSimulator(specs, num_machines=6, devices_per_machine=4,
                                num_spares=1, failures=failures).run()
        assert {j.state for j in report.jobs} == {"completed"}


class TestStrategyVocabulary:
    """One vocabulary: TrainerConfig/JobSpec accept FTStrategy values."""

    def make_dp_engine(self):
        cluster = Cluster(num_machines=2, devices_per_machine=1)
        return DataParallelEngine(
            cluster,
            model_factory=lambda: make_mlp(8, 16, 4, seed=1),
            opt_factory=lambda m: SGDMomentum(m, lr=0.05),
            loss_factory=CrossEntropyLoss,
            task=ClassificationTask(dim=8, num_classes=4, batch_size=8,
                                    seed=2),
            placement=[(0, 0), (1, 0)],
        )

    def make_pp_engine(self):
        cluster = Cluster(num_machines=2, devices_per_machine=1)
        return PipelineEngine(
            cluster,
            model_factory=lambda: make_mlp(8, 16, 4, depth=2, seed=1),
            partition_sizes=[3, 2],
            placement=[(0, 0), (1, 0)],
            num_microbatches=2,
            opt_factory=lambda m: Adam(m, lr=0.01),
            loss_factory=CrossEntropyLoss,
            task=ClassificationTask(dim=8, num_classes=4, batch_size=8,
                                    seed=2),
        )

    def test_explicit_replication_on_dp(self):
        trainer = SwiftTrainer(self.make_dp_engine(),
                               TrainerConfig(strategy="replication"))
        assert trainer.strategy is FTStrategy.REPLICATION
        auto = SwiftTrainer(self.make_dp_engine(), TrainerConfig())
        assert auto.strategy is FTStrategy.REPLICATION

    def test_explicit_logging_on_pp(self):
        trainer = SwiftTrainer(self.make_pp_engine(),
                               TrainerConfig(strategy="logging"))
        assert trainer.strategy is FTStrategy.LOGGING
        assert trainer.tlog is not None

    def test_mismatches_raise_at_build(self):
        with pytest.raises(ConfigurationError, match="replication"):
            SwiftTrainer(self.make_pp_engine(),
                         TrainerConfig(strategy="replication"))
        with pytest.raises(ConfigurationError, match="logging"):
            SwiftTrainer(self.make_dp_engine(),
                         TrainerConfig(strategy="logging"))

    def test_enum_values_accepted_directly(self):
        cfg = TrainerConfig(strategy=FTStrategy.CHECKPOINT_ONLY)
        assert cfg.strategy == "checkpoint_only"

    def test_bogus_strategy_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown strategy"):
            TrainerConfig(strategy="bogus")

    def test_jobspec_validates_strategy_against_parallelism(self):
        from repro.jobs import JobSpec

        with pytest.raises(ConfigurationError, match="replication"):
            JobSpec("x", "pp", num_workers=2, iterations=4,
                    strategy="replication")
        with pytest.raises(ConfigurationError, match="logging"):
            JobSpec("x", "dp", num_workers=2, iterations=4,
                    strategy="logging")
        with pytest.raises(ConfigurationError, match="unknown strategy"):
            JobSpec("x", "dp", num_workers=2, iterations=4,
                    strategy="undo_twice")


class TestRecoveryPolicyRegistry:
    """Mechanisms are pluggable, not isinstance-dispatched."""

    def test_builtins_registered(self):
        assert set(recovery_policy_names()) >= {
            "replication", "logging", "checkpoint_only"
        }

    def test_lookup_unknown_raises(self):
        with pytest.raises(ConfigurationError, match="unknown recovery"):
            get_recovery_policy("erasure_coding")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_recovery_policy(get_recovery_policy("replication"))

    def test_custom_policy_plugs_into_trainer(self):
        class NullRecovery:
            def recover(self):  # pragma: no cover - never triggered
                raise AssertionError("no failures injected")

        class NullPolicy:
            name = "null"

            def compatible(self, engine):
                return True

            def describe_requirements(self):
                return "anything"

            def build(self, ctx):
                return RecoveryBundle(recovery=NullRecovery())

        register_recovery_policy(NullPolicy())
        try:
            engine = TestStrategyVocabulary().make_dp_engine()
            trainer = SwiftTrainer(engine, TrainerConfig(strategy="null"))
            assert trainer.strategy == "null"
            trainer.train(4)
            assert len(trainer.trace.losses) == 4
            # ... and through the declarative surface end to end
            exp = dp_experiment(strategy="null")
            plan = exp.plan()
            assert plan.strategy == "null"
            assert plan.strategy_source == "explicit"
            assert "null" in plan.describe()
            session = exp.build()
            assert session.trainer.strategy == "null"
            session.run(3)
            assert len(session.trace.losses) == 3
        finally:
            _REGISTRY.pop("null")


class TestTraceReporting:
    """recovery_time_total and goodput live on the trace itself."""

    def test_recovery_time_total(self):
        session = dp_experiment().build()
        failures = FailureSchedule([
            FailureEvent(**TestSessionBitwise.DP_FAILURE)
        ])
        trace = session.run(24, failures=failures)
        assert trace.recovery_time_total == pytest.approx(
            sum(r.total_time for r in trace.recoveries)
        )
        assert trace.recovery_time_total > 0

    def test_goodput_accounts_for_stalls(self):
        session = dp_experiment().build()
        failures = FailureSchedule([
            FailureEvent(**TestSessionBitwise.DP_FAILURE)
        ])
        trace = session.run(24, failures=failures)
        gp = trace.goodput(32)
        useful = 24 * 32 / sum(trace.iteration_times)
        assert 0 < gp < useful  # stalls make goodput < pure throughput

    def test_empty_trace_edges(self):
        from repro.core import TrainingTrace

        trace = TrainingTrace()
        assert trace.total_time == 0.0
        assert trace.recovery_time_total == 0.0
        assert trace.goodput(32) == 0.0

    def test_failure_free_totals(self):
        session = dp_experiment().build()
        trace = session.run(12)
        assert len(trace.iteration_times) == 12 and not trace.recoveries
        assert trace.recovery_time_total == 0
        assert trace.goodput(32) == 12 * 32 / trace.total_time
