"""SwiftTrainer orchestration: checkpoints, GC, detection, traces."""

import numpy as np
import pytest

from helpers import make_dp_engine, make_pp_engine
from repro.cluster import FailureEvent, FailurePhase, FailureSchedule, SimClock
from repro.core import (
    FailureDetector,
    LoggingMode,
    SwiftTrainer,
    TrainerConfig,
)
from repro.core.detector import DETECTION_TIME
from repro.errors import ConfigurationError


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TrainerConfig(checkpoint_interval=0)
        with pytest.raises(ConfigurationError):
            TrainerConfig(parallel_recovery_degree=0)


class TestDetector:
    def test_detection_requires_flag(self):
        from repro.cluster import KVStore

        det = FailureDetector(KVStore(), SimClock())
        with pytest.raises(RuntimeError):
            det.detect()

    def test_detection_consumes_flag_and_charges_time(self):
        from repro.cluster import KVStore

        kv, clock = KVStore(), SimClock()
        kv.raise_failure(2, 42)
        det = FailureDetector(kv, clock)
        report = det.detect()
        assert report.machine_id == 2 and report.iteration == 42
        assert report.detection_time == DETECTION_TIME
        assert clock.total_time("failure_detection") == report.detection_time
        assert not kv.failure_raised()


class TestTrainerLoop:
    def test_checkpoint_cadence(self):
        eng = make_dp_engine()
        trainer = SwiftTrainer(eng, TrainerConfig(checkpoint_interval=5))
        trace = trainer.train(16)
        assert [it for it, _ in trace.checkpoints] == [0, 5, 10, 15]

    def test_no_initial_checkpoint_option(self):
        eng = make_dp_engine()
        cfg = TrainerConfig(checkpoint_interval=5, checkpoint_at_start=False)
        trainer = SwiftTrainer(eng, cfg)
        trace = trainer.train(7)
        assert [it for it, _ in trace.checkpoints] == [5]

    def test_trace_shape(self):
        eng = make_dp_engine()
        trainer = SwiftTrainer(eng, TrainerConfig(checkpoint_interval=10))
        trace = trainer.train(12)
        assert len(trace.losses) == 12
        assert trace.iteration_numbers == list(range(12))
        assert all(t > 0 for t in trace.iteration_times)
        assert trace.wall_times == sorted(trace.wall_times)
        assert trace.total_time == trace.wall_times[-1]

    def test_throughput_series(self):
        eng = make_dp_engine()
        trainer = SwiftTrainer(eng, TrainerConfig(checkpoint_interval=10))
        trace = trainer.train(5)
        tp = trace.throughput(samples_per_iteration=16)
        assert len(tp) == 5 and all(v > 0 for v in tp)

    def test_failed_iteration_rerun_not_counted_twice(self):
        eng = make_dp_engine()
        trainer = SwiftTrainer(eng, TrainerConfig(checkpoint_interval=8))
        sched = FailureSchedule([FailureEvent(1, 5, FailurePhase.FORWARD)])
        trace = trainer.train(10, failures=sched)
        assert trace.iteration_numbers == list(range(10))
        assert len(trace.recoveries) == 1

    def test_pipeline_log_gc_on_checkpoint(self):
        eng = make_pp_engine()
        trainer = SwiftTrainer(eng, TrainerConfig(checkpoint_interval=4))
        trainer.train(9)
        live_iters = {
            it for it in trainer.tlog.bytes_per_iteration
        }
        # everything before the last checkpoint (iteration 8) collected
        assert live_iters == {8}

    def test_logging_mode_sync_slows_iterations(self):
        eng_b = make_pp_engine()
        t_bubble = SwiftTrainer(
            eng_b, TrainerConfig(checkpoint_interval=100),
            logging_mode=LoggingMode.BUBBLE,
        )
        tr_b = t_bubble.train(5)
        eng_s = make_pp_engine()
        t_sync = SwiftTrainer(
            eng_s, TrainerConfig(checkpoint_interval=100),
            logging_mode=LoggingMode.SYNC,
        )
        tr_s = t_sync.train(5)
        assert sum(tr_s.iteration_times) > sum(tr_b.iteration_times)

    def test_dp_trainer_uses_replication(self):
        from repro.core import ReplicationRecovery

        trainer = SwiftTrainer(make_dp_engine(),
                               TrainerConfig(checkpoint_interval=8))
        assert isinstance(trainer.recovery, ReplicationRecovery)
        assert trainer.tlog is None

    def test_pp_trainer_uses_logging(self):
        from repro.core import LoggingRecovery

        trainer = SwiftTrainer(make_pp_engine(),
                               TrainerConfig(checkpoint_interval=8))
        assert isinstance(trainer.recovery, LoggingRecovery)
        assert trainer.tlog is not None

    def test_snapshot_baseline_integration(self):
        from repro.core import SnapshotManager

        eng = make_dp_engine()
        snaps = SnapshotManager(eng.cluster, eng.clock, mode="elastic")
        trainer = SwiftTrainer(
            eng, TrainerConfig(checkpoint_interval=100),
            snapshots=snaps, snapshot_interval=3,
        )
        trainer.train(10)
        assert snaps.has_snapshot(0)
        assert snaps.latest(0)[0] in (3, 6, 9)

    def test_training_continues_after_recovery_to_target(self):
        eng = make_pp_engine()
        trainer = SwiftTrainer(eng, TrainerConfig(checkpoint_interval=8))
        sched = FailureSchedule([FailureEvent(2, 9, FailurePhase.FORWARD)])
        trace = trainer.train(15, failures=sched)
        assert eng.iteration == 15
        assert len(trace.losses) == 15


class TestStepwiseTraining:
    """The cooperative step() API the cluster scheduler interleaves."""

    def test_step_runs_one_iteration(self):
        eng = make_dp_engine()
        trainer = SwiftTrainer(eng, TrainerConfig(checkpoint_interval=5))
        result = trainer.step()
        assert eng.iteration == 1
        assert result.iteration == 0
        assert len(trainer.trace.losses) == 1

    def test_repeated_train_calls_return_per_call_traces(self):
        eng = make_dp_engine()
        trainer = SwiftTrainer(eng, TrainerConfig(checkpoint_interval=5))
        first = trainer.train(10)
        second = trainer.train(20)
        assert len(first.losses) == 10
        assert len(second.losses) == 10
        assert second.iteration_numbers[0] == 10
        # the lifetime trace accumulates both calls
        assert len(trainer.trace.losses) == 20

    def test_steps_then_train_resumes_seamlessly(self):
        eng = make_dp_engine()
        trainer = SwiftTrainer(eng, TrainerConfig(checkpoint_interval=5))
        for _ in range(3):
            trainer.step()
        trace = trainer.train(8)
        assert eng.iteration == 8
        assert len(trace.losses) == 5  # iterations 3..7 of this call
        assert len(trainer.trace.losses) == 8

    def test_step_matches_train_losses(self):
        stepped = make_dp_engine()
        t1 = SwiftTrainer(stepped, TrainerConfig(checkpoint_interval=5))
        for _ in range(6):
            t1.step()
        trained = make_dp_engine()
        t2 = SwiftTrainer(trained, TrainerConfig(checkpoint_interval=5))
        trace = t2.train(6)
        assert np.allclose(t1.trace.losses, trace.losses)
