"""Recovery mechanisms: replication, logging replay, parallel recovery."""

import numpy as np
import pytest

from helpers import (
    assert_untouched,
    engine_snapshot,
    make_dp_engine,
    make_pp_engine,
    pipeline_states,
    states_allclose,
    states_equal,
)
from repro.api import (
    ClusterSpec,
    DataSpec,
    Experiment,
    FaultToleranceSpec,
    ModelSpec,
    ParallelismSpec,
)
from repro.cluster import Cluster, FailureEvent, FailurePhase, FailureSchedule
from repro.core import (
    CheckpointManager,
    FailureDetector,
    GroupingPlan,
    LoggingRecovery,
    ReplicationRecovery,
    SwiftTrainer,
    TensorLog,
    TrainerConfig,
    resolve_dp_consistency,
)
from repro.data import ClassificationTask
from repro.errors import RecoveryError
from repro.nn import CrossEntropyLoss, Dropout, Linear, ReLU, Sequential
from repro.optim import Adam
from repro.parallel import DataParallelEngine, FSDPEngine, PipelineEngine
from repro.utils import RngStream, state_equal


def train_reference(build, iterations=20, ckpt=8):
    eng = build()
    trainer = SwiftTrainer(eng, TrainerConfig(checkpoint_interval=ckpt))
    trainer.train(iterations)
    return eng


class TestReplicationRecovery:
    def run_with_failure(self, event, iterations=20):
        eng = make_dp_engine()
        trainer = SwiftTrainer(eng, TrainerConfig(checkpoint_interval=8))
        trace = trainer.train(
            iterations, failures=FailureSchedule([event])
        )
        return eng, trace

    def test_recovers_to_failure_free_state(self):
        ref = train_reference(make_dp_engine)
        event = FailureEvent(1, 13, FailurePhase.MID_UPDATE, after_updates=2)
        eng, trace = self.run_with_failure(event)
        a = ref.workers[0].model.state_dict()
        b = eng.workers[0].model.state_dict()
        assert all(np.allclose(a[k], b[k], atol=1e-8) for k in a)

    def test_zero_lost_iterations(self):
        event = FailureEvent(0, 10, FailurePhase.MID_UPDATE, after_updates=1)
        _, trace = self.run_with_failure(event)
        report = trace.recoveries[0]
        assert report.strategy == "replication"
        assert report.lost_iterations == 0

    def test_replicas_consistent_after_recovery(self):
        event = FailureEvent(1, 7, FailurePhase.BACKWARD)
        eng, _ = self.run_with_failure(event)
        assert eng.replicas_consistent()

    def test_optimizer_state_restored(self):
        """The broadcast carries momentum, not just parameters."""
        ref = train_reference(make_dp_engine)
        event = FailureEvent(1, 12, FailurePhase.FORWARD)
        eng, _ = self.run_with_failure(event)
        a = ref.workers[0].optimizer.state_dict()
        b = eng.workers[2].optimizer.state_dict()  # a replacement worker
        assert all(np.allclose(a[k], b[k], atol=1e-8) for k in a)

    def test_recovery_report_components(self):
        event = FailureEvent(1, 10, FailurePhase.MID_UPDATE, after_updates=1)
        _, trace = self.run_with_failure(event)
        r = trace.recoveries[0]
        assert r.detection_time > 0
        assert r.init_time > 0
        assert r.restore_time > 0
        assert r.total_time == pytest.approx(
            r.detection_time + r.init_time + r.undo_time + r.restore_time
        )

    def test_recovery_much_faster_than_lost_work(self):
        """Recovery ≪ re-computing from a checkpoint (the 98.9% claim)."""
        event = FailureEvent(1, 15, FailurePhase.MID_UPDATE, after_updates=2)
        eng, trace = self.run_with_failure(event)
        r = trace.recoveries[0]
        # no recompute at all: restore is just a broadcast
        assert r.lost_iterations == 0
        assert r.recovery_time < 1.0  # broadcast of a tiny model

    def test_all_replicas_lost_raises(self):
        eng = make_dp_engine()
        eng.run_iteration()
        eng.cluster.fail_machine(0)
        eng.cluster.fail_machine(1)
        eng.cluster.kvstore.raise_failure(0, 1)
        detector = FailureDetector(eng.cluster.kvstore, eng.clock)
        rec = ReplicationRecovery(eng, detector, eng.clock)
        with pytest.raises(RecoveryError):
            rec.recover()

    def test_multiple_simultaneous_failures_need_one_survivor(self):
        """Appendix B: two machines die, the third replica restores both."""
        eng = make_dp_engine(num_workers=6, machines=3)
        trainer = SwiftTrainer(eng, TrainerConfig(checkpoint_interval=8))
        sched = FailureSchedule([
            FailureEvent(1, 9, FailurePhase.MID_UPDATE, after_updates=1),
            FailureEvent(2, 9, FailurePhase.ITERATION_START),
        ])
        trainer.train(15, failures=sched)
        assert eng.replicas_consistent()
        assert sorted(trainer.recovery.engine.cluster.kvstore._data) is not None
        ref = train_reference(
            lambda: make_dp_engine(num_workers=6, machines=3), 15
        )
        a = ref.workers[0].model.state_dict()
        b = eng.workers[0].model.state_dict()
        assert all(np.allclose(a[k], b[k], atol=1e-8) for k in a)


class TestRefusalTouchesNothing:
    """A mechanism that gives up raises its typed error before the first
    mutation: survivors keep their partial update (and its undo marks),
    the log keeps its records, no holder is replaced."""

    def crash_before_any_checkpoint(self, build, strategy):
        eng = build()
        trainer = SwiftTrainer(eng, TrainerConfig(
            checkpoint_interval=8, checkpoint_at_start=False,
            strategy=strategy))
        trainer.train(3)
        # mid-update, so that a survivor has an update it could undo
        assert eng.run_iteration(failure=FailureEvent(
            1, 3, FailurePhase.MID_UPDATE, after_updates=2)).failed
        return eng, trainer

    def test_logging_without_a_checkpoint(self):
        eng, trainer = self.crash_before_any_checkpoint(make_pp_engine, "auto")
        assert any(s.updated_this_iteration for s in eng.stages if s.alive)
        before = engine_snapshot(eng, trainer.tlog)
        assert before["log_records"] > 0
        with pytest.raises(RecoveryError, match="no global checkpoint"):
            trainer.recover_now()
        assert_untouched(before, eng, trainer.tlog)

    def test_global_restart_without_a_checkpoint(self):
        eng, trainer = self.crash_before_any_checkpoint(
            make_dp_engine, "checkpoint_only")
        assert any(w.updated_params for w in eng.alive_workers())
        before = engine_snapshot(eng)
        with pytest.raises(RecoveryError, match="no global checkpoint"):
            trainer.recover_now()
        assert_untouched(before, eng)

    def test_replication_with_every_replica_lost(self):
        eng, trainer = self.crash_before_any_checkpoint(make_dp_engine, "auto")
        eng.cluster.fail_machine(0)
        before = engine_snapshot(eng)
        with pytest.raises(RecoveryError, match="no surviving replica"):
            trainer.recover_now()
        assert_untouched(before, eng)

    def test_sharded_replication_with_an_owner_and_its_mirror_lost(self):
        session = Experiment(
            cluster=ClusterSpec(num_machines=4, devices_per_machine=1),
            parallelism=ParallelismSpec(kind="fsdp", num_workers=4),
        ).build()
        session.run(3)
        eng = session.engine
        # ranks 0 and 2 mirror each other; rank 1 updated before the crash
        assert eng.run_iteration(failure=FailureEvent(
            0, 3, FailurePhase.MID_UPDATE, after_updates=2)).failed
        eng.cluster.fail_machine(2)
        assert eng.workers[1].updated_params
        before = engine_snapshot(eng)
        with pytest.raises(RecoveryError, match="both copies of shard"):
            session.trainer.recover_now()
        assert_untouched(before, eng)


def wide_resnet_session(workers=2, **fault_tolerance):
    """The paper's CNN family, one stage per machine (PP-2 / m = 2 by
    default), logging, checkpoint every 4."""
    return Experiment(
        model=ModelSpec(family="wide_resnet", base_channels=4, image_size=8,
                        num_classes=3),
        data=DataSpec(kind="images", batch_size=2 * workers),
        cluster=ClusterSpec(num_machines=workers, devices_per_machine=1),
        parallelism=ParallelismSpec(kind="pp", num_workers=workers,
                                    num_microbatches=workers),
        fault_tolerance=FaultToleranceSpec(
            strategy="logging", checkpoint_interval=4, **fault_tolerance),
    ).build()


def wide_resnet_run(failure: FailureEvent | None = None, *, workers=2,
                    **fault_tolerance):
    """:func:`wide_resnet_session` run to iteration 8; returns every
    stage's ``full_state()``."""
    session = wide_resnet_session(workers, **fault_tolerance)
    session.run(8, failures=FailureSchedule([failure] if failure else []))
    return session.engine.full_state()


class TestLoggingRecovery:
    def reference(self, iterations=20):
        return train_reference(make_pp_engine, iterations)

    def run_with_failure(self, event, iterations=20, degree=1, ckpt=8):
        eng = make_pp_engine()
        trainer = SwiftTrainer(
            eng,
            TrainerConfig(checkpoint_interval=ckpt,
                          parallel_recovery_degree=degree),
        )
        trace = trainer.train(iterations, failures=FailureSchedule([event]))
        return eng, trace

    def test_pure_replay_is_bitwise_exact(self):
        ref = pipeline_states(self.reference())
        event = FailureEvent(2, 13, FailurePhase.FORWARD)
        eng, _ = self.run_with_failure(event)
        assert states_equal(ref, pipeline_states(eng))
        # BatchNorm moves its running statistics on every forward, so
        # replay has to make exactly the live step's forwards, in its
        # order: one per (chunk, micro-batch), each backward reusing its
        # forward's stashed caches
        ref = wide_resnet_run()
        assert any("running_mean" in key for key in ref[0])
        for machine in (0, 1):
            got = wide_resnet_run(
                FailureEvent(machine, 6, FailurePhase.ITERATION_START))
            assert states_equal(ref, got), machine

    def test_mid_iteration_failure_keeps_survivor_batchnorm_exact(self):
        # the aborted attempt's forwards moved the surviving stage's
        # BatchNorm running statistics; recovery puts them back before
        # the iteration re-runs
        got = wide_resnet_run(FailureEvent(1, 6, FailurePhase.FORWARD))
        assert states_equal(wide_resnet_run(), got)

    def test_rolled_forward_survivor_keeps_its_batchnorm_statistics(self):
        # stage 1 finishes its backwards first and updates, then machine 0
        # fails: the survivor completed iteration 6, so recovery rolls
        # forward and its running statistics keep that iteration's forwards
        got = wide_resnet_run(
            FailureEvent(0, 6, FailurePhase.MID_UPDATE, after_updates=1))
        assert states_equal(wide_resnet_run(), got)

    def test_failure_between_iterations_keeps_survivor_batchnorm(self):
        # a shared-cluster crash lands between iterations (as the fleet
        # routes it): nothing was aborted, so the survivor keeps every
        # completed forward's running statistics
        session = wide_resnet_session()
        session.run(6)
        session.engine.cluster.fail_machine(0)
        session.engine.cluster.kvstore.raise_failure(0, 6)
        session.trainer.recover_now()
        session.run(8)
        assert states_equal(wide_resnet_run(), session.engine.full_state())

    @pytest.mark.parametrize("pooled", [True, False])
    def test_handed_over_tensors_arrive_as_the_transport_delivers(
            self, pooled):
        """Two failed stages hand tensors over in memory; conv outputs are
        strided views and a receiver's rounding follows its input's
        strides, so the hand-over must make the copy the live transport
        made: C order, pooled or not."""
        kwargs = dict(workers=4, pooled_messaging=pooled,
                      grouping=GroupingPlan.of([[0, 1], [2, 3]]))
        ref = wide_resnet_run(**kwargs)
        got = wide_resnet_run(
            FailureEvent(0, 6, FailurePhase.ITERATION_START), **kwargs)
        assert states_equal(ref, got)

    def test_mid_update_failure_with_undo(self):
        ref = pipeline_states(self.reference())
        event = FailureEvent(1, 14, FailurePhase.MID_UPDATE, after_updates=3)
        eng, trace = self.run_with_failure(event)
        assert trace.recoveries[0].details["undone_params"] > 0
        assert states_allclose(ref, pipeline_states(eng), atol=1e-8)

    @pytest.mark.parametrize("degree", [2, 4])
    def test_parallel_recovery_logically_equivalent(self, degree):
        ref = pipeline_states(self.reference())
        event = FailureEvent(2, 13, FailurePhase.FORWARD)
        eng, trace = self.run_with_failure(event, degree=degree)
        assert trace.recoveries[0].strategy == "logging+pr"
        assert states_allclose(ref, pipeline_states(eng), atol=1e-7)

    def test_parallel_recovery_faster(self):
        event = FailureEvent(2, 13, FailurePhase.FORWARD)
        _, t1 = self.run_with_failure(event)
        event = FailureEvent(2, 13, FailurePhase.FORWARD)
        _, t4 = self.run_with_failure(event, degree=4)
        assert (
            t4.recoveries[0].restore_time < t1.recoveries[0].restore_time
        )

    def test_only_failed_stages_replayed(self):
        event = FailureEvent(2, 13, FailurePhase.FORWARD)
        _, trace = self.run_with_failure(event)
        assert trace.recoveries[0].details["stage_ids"] == [2]

    def test_lost_iterations_counted_from_checkpoint(self):
        event = FailureEvent(2, 13, FailurePhase.FORWARD)
        _, trace = self.run_with_failure(event)
        assert trace.recoveries[0].lost_iterations == 13 - 8

    def test_failure_immediately_after_checkpoint(self):
        ref = pipeline_states(self.reference())
        event = FailureEvent(1, 8, FailurePhase.FORWARD)
        eng, trace = self.run_with_failure(event)
        assert trace.recoveries[0].lost_iterations == 0
        assert states_equal(ref, pipeline_states(eng))

    def test_failure_of_first_stage(self):
        """Stage 0 has no upstream log; inputs regenerate from the task."""
        ref = pipeline_states(self.reference())
        event = FailureEvent(0, 12, FailurePhase.BACKWARD)
        eng, _ = self.run_with_failure(event)
        assert states_allclose(ref, pipeline_states(eng), atol=1e-8)

    def test_failure_of_last_stage(self):
        """Last stage has no downstream log; loss grads recompute."""
        ref = pipeline_states(self.reference())
        event = FailureEvent(3, 12, FailurePhase.FORWARD)
        eng, _ = self.run_with_failure(event)
        assert states_allclose(ref, pipeline_states(eng), atol=1e-8)

    def test_grouped_machines_recover_jointly(self):
        """Selective logging: a failure inside a group rolls back the group."""
        eng = make_pp_engine()
        grouping = GroupingPlan.of([[0, 1], [2, 3]])
        trainer = SwiftTrainer(
            eng, TrainerConfig(checkpoint_interval=8), grouping=grouping
        )
        sched = FailureSchedule([FailureEvent(1, 12, FailurePhase.FORWARD)])
        trace = trainer.train(20, failures=sched)
        # machine 1 is grouped with machine 0: stages 0 and 1 both replay
        assert trace.recoveries[0].details["stage_ids"] == [0, 1]
        ref = pipeline_states(self.reference())
        assert states_allclose(ref, pipeline_states(eng), atol=1e-8)

    def test_disjoint_failures_recover_independently(self):
        """Appendix B: machines 0 and 2 fail; two disjoint spans replay."""
        eng = make_pp_engine()
        trainer = SwiftTrainer(eng, TrainerConfig(checkpoint_interval=8))
        sched = FailureSchedule([
            FailureEvent(0, 12, FailurePhase.FORWARD),
            FailureEvent(2, 12, FailurePhase.ITERATION_START),
        ])
        trace = trainer.train(20, failures=sched)
        report = trace.recoveries[0]
        assert sorted(report.failed_machines) == [0, 2]
        assert report.details["stage_ids"] == [0, 2]
        ref = pipeline_states(self.reference())
        assert states_allclose(ref, pipeline_states(eng), atol=1e-8)

    def test_independent_portions_follow_the_pipeline_edges(self):
        """Timing charges the max over portions no tensor crosses: runs
        of neighbours on a flat pipeline, arcs of the ring once each
        worker hosts several chunks (the last feeds the first)."""
        def portions(engine, stage_ids):
            rec = LoggingRecovery(
                engine, TensorLog(engine.cluster),
                CheckpointManager(engine.cluster, engine.clock),
                FailureDetector(engine.cluster.kvstore, engine.clock),
                engine.clock)
            return rec.independent_portions(stage_ids)

        flat = make_pp_engine()
        assert portions(flat, [0, 2, 3]) == [[0], [2, 3]]
        assert portions(flat, [0, 3]) == [[0], [3]]
        ring = make_pp_engine(schedule="interleaved_1f1b", depth=8)
        assert portions(ring, [0, 2]) == [[0], [2]]
        assert portions(ring, [0, 3]) == [[3, 0]]
        assert portions(ring, [0, 1, 3]) == [[3, 0, 1]]

    def test_replay_missing_the_consensus_iteration_is_typed(
            self, monkeypatch):
        eng = make_pp_engine()
        trainer = SwiftTrainer(eng, TrainerConfig(checkpoint_interval=8))
        trainer.train(13)
        # a replay whose updates never land must not be swapped in
        monkeypatch.setattr(
            eng, "apply_updates", lambda stages, failure=None: True)
        event = FailureEvent(2, 13, FailurePhase.ITERATION_START)
        with pytest.raises(RecoveryError, match="iteration 8, expected 13"):
            trainer.train(20, failures=FailureSchedule([event]))

    def test_cascading_failure_sequential_recoveries(self):
        """Appendix B: a second, unrelated failure after the first recovery."""
        eng = make_pp_engine()
        trainer = SwiftTrainer(eng, TrainerConfig(checkpoint_interval=8))
        sched = FailureSchedule([
            FailureEvent(1, 10, FailurePhase.FORWARD),
            FailureEvent(3, 14, FailurePhase.FORWARD),
        ])
        trace = trainer.train(20, failures=sched)
        assert len(trace.recoveries) == 2
        ref = pipeline_states(self.reference())
        assert states_allclose(ref, pipeline_states(eng), atol=1e-8)

    def test_no_checkpoint_raises(self):
        eng = make_pp_engine()
        eng.run_iteration()
        eng.run_iteration(failure=FailureEvent(1, 1, FailurePhase.FORWARD))
        tlog = TensorLog(eng.cluster)
        ckpt = CheckpointManager(eng.cluster, eng.clock)
        detector = FailureDetector(eng.cluster.kvstore, eng.clock)
        rec = LoggingRecovery(eng, tlog, ckpt, detector, eng.clock)
        with pytest.raises(RecoveryError):
            rec.recover()


def dropout_mlp() -> Sequential:
    """An MLP with a ``Dropout(0.3)`` in each half (each PP-2 stage)."""
    rng = RngStream(5, "dropout")
    return Sequential([
        Linear(8, 16, rng=rng.child("a")), ReLU(),
        Dropout(0.3, rng=rng.child("d0")),
        Linear(16, 16, rng=rng.child("b")), ReLU(),
        Dropout(0.3, rng=rng.child("d1")),
        Linear(16, 4, rng=rng.child("c")),
    ])


def dropout_engine(kind: str):
    """``dropout_mlp`` under Adam: PP-2 with 2 micro-batches, or DP/FSDP
    over 2 machines x 2 devices."""
    common = dict(model_factory=dropout_mlp, loss_factory=CrossEntropyLoss,
                  task=ClassificationTask(dim=8, num_classes=4,
                                          batch_size=16, seed=3))
    if kind == "pp":
        return PipelineEngine(
            Cluster(2, devices_per_machine=1), partition_sizes=[3, 4],
            placement=[(0, 0), (1, 0)], num_microbatches=2,
            opt_factory=lambda m: Adam(m, lr=0.01), **common)
    engine = DataParallelEngine if kind == "dp" else FSDPEngine
    return engine(Cluster(2, devices_per_machine=2),
                  placement=[(m, d) for m in range(2) for d in range(2)],
                  opt_factory=lambda m: Adam(m, lr=0.01), **common)


class TestDropoutMasks:
    """A dropout mask is a function of the layer's stream, the iteration
    and the micro-batch: a replayed, restored or retried iteration draws
    the failure-free run's masks."""

    @staticmethod
    def run(kind, failures=(), degree=1):
        eng = dropout_engine(kind)
        SwiftTrainer(eng, TrainerConfig(
            checkpoint_interval=4, parallel_recovery_degree=degree,
        )).train(8, failures=FailureSchedule(list(failures)))
        return [h.full_state() for h in eng.state_holders()]

    @pytest.mark.parametrize("kind, degree, phase", [
        ("pp", 1, FailurePhase.ITERATION_START),  # logging replay
        ("pp", 2, FailurePhase.ITERATION_START),  # micro-batches 0, 2, ...
        ("pp", 1, FailurePhase.BACKWARD),  # a survivor retries iteration 6
        ("dp", 1, FailurePhase.FORWARD),
        ("fsdp", 1, FailurePhase.ITERATION_START),
    ])
    def test_recovery_ends_at_the_failure_free_state(self, kind, degree,
                                                     phase):
        ref = self.run(kind)
        got = self.run(kind, [FailureEvent(0, 6, phase)], degree)
        assert len(got) == len(ref)
        for a, b in zip(ref, got):
            assert state_equal(a, b)
