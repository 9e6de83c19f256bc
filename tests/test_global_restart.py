"""Live checkpoint-restart baseline: correctness and its lost-work cost."""

import numpy as np
import pytest

from helpers import (
    assert_untouched,
    engine_snapshot,
    make_dp_engine,
    make_pp_engine,
)
from repro.api import (
    Experiment,
    FaultToleranceSpec,
    ModelSpec,
    ParallelismSpec,
)
from repro.cluster import FailureEvent, FailurePhase, FailureSchedule
from repro.core import SwiftTrainer, TrainerConfig
from repro.errors import CheckpointError, ConfigurationError


def run(build, strategy, failure=None, iterations=16, ckpt=6):
    eng = build()
    trainer = SwiftTrainer(
        eng, TrainerConfig(checkpoint_interval=ckpt, strategy=strategy)
    )
    failures = FailureSchedule([failure]) if failure else None
    trace = trainer.train(iterations, failures=failures)
    return eng, trace


class TestCheckpointRestartDP:
    def test_all_workers_rolled_back(self):
        """The baseline's defining cost: survivors lose their progress."""
        failure = FailureEvent(1, 10, FailurePhase.FORWARD)
        _, trace = run(make_dp_engine, "checkpoint_only", failure)
        # iterations 6..9 were re-run: they appear twice in the trace
        repeated = [
            it for it in set(trace.iteration_numbers)
            if trace.iteration_numbers.count(it) > 1
        ]
        assert sorted(repeated) == [6, 7, 8, 9]
        assert trace.recoveries[0].lost_iterations == 4

    def test_mid_update_failure_recovers_via_rollback(self):
        """No undo needed: the rollback discards the partial update."""
        ref, _ = run(make_dp_engine, "auto")
        failure = FailureEvent(1, 9, FailurePhase.MID_UPDATE, after_updates=3)
        eng, trace = run(make_dp_engine, "checkpoint_only", failure)
        assert trace.recoveries[0].undo_time == 0.0
        a = ref.workers[0].model.state_dict()
        b = eng.workers[0].model.state_dict()
        for k in a:
            assert np.allclose(a[k], b[k], atol=1e-9), k

    def test_replicas_consistent_after_restart(self):
        failure = FailureEvent(0, 8, FailurePhase.BACKWARD)
        eng, _ = run(make_dp_engine, "checkpoint_only", failure)
        assert eng.replicas_consistent()


class TestCheckpointRestartPP:
    def test_whole_pipeline_rolls_back(self):
        """Contrast with Swift logging: ALL stages restart, not just the
        failed machine's sub-pipeline."""
        failure = FailureEvent(2, 11, FailurePhase.FORWARD)
        _, trace = run(make_pp_engine, "checkpoint_only", failure)
        assert trace.recoveries[0].details["rolled_back_workers"] == "all"
        assert trace.recoveries[0].lost_iterations == 5

    def test_baseline_disables_tensor_logging(self):
        eng = make_pp_engine()
        trainer = SwiftTrainer(
            eng, TrainerConfig(checkpoint_interval=6,
                               strategy="checkpoint_only")
        )
        trainer.train(4)
        assert trainer.tlog is None


@pytest.mark.parametrize("kind", ["dp", "pp", "fsdp"])
def test_unreadable_last_shard_leaves_every_holder_as_it_was(kind):
    """All or nothing: every shard is read back before the first holder
    is replaced."""
    session = Experiment(
        model=ModelSpec(depth=4),  # a layer with parameters on every stage
        parallelism=ParallelismSpec(kind=kind, num_workers=4),
        fault_tolerance=FaultToleranceSpec(strategy="checkpoint_only",
                                           checkpoint_interval=3),
    ).build()
    session.run(5)
    engine, trainer = session.engine, session.trainer
    assert engine.run_iteration(failure=FailureEvent(
        1, 5, FailurePhase.MID_UPDATE, after_updates=2)).failed
    session.cluster.global_store.delete(trainer.checkpoints._key(3, 3))
    before = engine_snapshot(engine)
    with pytest.raises(CheckpointError, match="missing checkpoint shard"):
        trainer.recover_now()
    assert_untouched(before, engine)


class TestLostWorkComparison:
    def test_swift_rerenders_fewer_iterations_than_baseline(self):
        """The headline contrast on the live engine: for the same failure,
        Swift re-executes only the interrupted iteration, the baseline
        re-executes everything since the checkpoint."""
        failure = FailureEvent(1, 11, FailurePhase.FORWARD)
        _, swift_trace = run(make_pp_engine, "auto", failure)
        failure = FailureEvent(1, 11, FailurePhase.FORWARD)
        _, base_trace = run(make_pp_engine, "checkpoint_only", failure)
        # same useful iterations, strictly more executed under the baseline
        assert len(base_trace.losses) > len(swift_trace.losses)
        assert base_trace.total_time > 0

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigurationError):
            TrainerConfig(strategy="bogus")
