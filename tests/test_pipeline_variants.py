"""Pipeline engine variants: GPipe schedule, multi-stage machines,
heterogeneous stage times — and recovery under each."""

import numpy as np
import pytest

from helpers import pipeline_states, states_allclose, states_equal
from repro.cluster import Cluster, FailureEvent, FailurePhase, FailureSchedule
from repro.core import SwiftTrainer, TrainerConfig
from repro.data import ClassificationTask
from repro.errors import ConfigurationError
from repro.models import make_mlp
from repro.nn import CrossEntropyLoss
from repro.optim import Adam, SGDMomentum
from repro.parallel import PipelineEngine


def build(cluster=None, schedule="1f1b", stages_per_machine=1,
          num_microbatches=4, fwd_times=None, bwd_times=None):
    machines = 4 // stages_per_machine
    cluster = cluster or Cluster(machines,
                                 devices_per_machine=stages_per_machine)
    task = ClassificationTask(dim=8, num_classes=4, batch_size=16, seed=3)
    return PipelineEngine(
        cluster,
        model_factory=lambda: make_mlp(8, 16, 4, depth=3, seed=7),
        partition_sizes=[2, 2, 2, 1],
        placement=[(s // stages_per_machine, s % stages_per_machine)
                   for s in range(4)],
        num_microbatches=num_microbatches,
        opt_factory=lambda m: Adam(m, lr=0.01),
        loss_factory=CrossEntropyLoss,
        task=task,
        schedule=schedule,
        fwd_times=fwd_times,
        bwd_times=bwd_times,
    )


class TestGPipeSchedule:
    def test_gpipe_numerics_match_1f1b(self):
        """Schedules change timing, never results."""
        a, b = build(schedule="1f1b"), build(schedule="gpipe")
        for _ in range(4):
            ra, rb = a.run_iteration(), b.run_iteration()
            assert ra.loss == rb.loss
        assert states_equal(pipeline_states(a), pipeline_states(b))

    def test_gpipe_recovery_exact(self):
        ref = build(schedule="gpipe")
        SwiftTrainer(ref, TrainerConfig(checkpoint_interval=6)).train(15)
        eng = build(schedule="gpipe")
        trainer = SwiftTrainer(eng, TrainerConfig(checkpoint_interval=6))
        sched = FailureSchedule([FailureEvent(2, 10, FailurePhase.FORWARD)])
        trainer.train(15, failures=sched)
        assert states_equal(pipeline_states(ref), pipeline_states(eng))

    def test_gpipe_holds_more_in_flight(self):
        a = build(schedule="1f1b", num_microbatches=8)
        b = build(schedule="gpipe", num_microbatches=8)
        assert max(b.timing().max_in_flight) > max(a.timing().max_in_flight)


class TestMultiStageMachines:
    def test_machine_failure_replays_both_its_stages(self):
        """Two stages per machine: intra-machine edges are unlogged, so
        the failed machine's whole 2-stage span replays (Figure 6b)."""
        ref = build(stages_per_machine=2)
        SwiftTrainer(ref, TrainerConfig(checkpoint_interval=6)).train(15)
        eng = build(stages_per_machine=2)
        trainer = SwiftTrainer(eng, TrainerConfig(checkpoint_interval=6))
        sched = FailureSchedule([FailureEvent(1, 11, FailurePhase.FORWARD)])
        trace = trainer.train(15, failures=sched)
        assert trace.recoveries[0].details["stage_ids"] == [2, 3]
        assert states_equal(pipeline_states(ref), pipeline_states(eng))

    def test_intra_machine_edges_not_logged(self):
        eng = build(stages_per_machine=2)
        trainer = SwiftTrainer(eng, TrainerConfig(checkpoint_interval=50))
        trainer.train(2)
        # edges 0->1 and 2->3 are intra-machine: no fwd records for stage 1
        assert not trainer.tlog.has(1, 0, 0, "fwd")
        assert trainer.tlog.has(2, 0, 0, "fwd")


class TestHeterogeneousTiming:
    def test_slow_stage_dominates_iteration(self):
        eng = build(fwd_times=[0.001, 0.02, 0.001, 0.001],
                    bwd_times=[0.002, 0.04, 0.002, 0.002])
        t = eng.timing()
        # bottleneck stage has (almost) no bubble; others wait on it
        assert t.stage_bubble[1] < t.stage_bubble[0]
        assert t.iteration_time >= 4 * 0.06  # m * (fwd+bwd) of the bottleneck

    def test_recovery_time_reflects_span_cost(self):
        """Replaying the expensive stage takes longer than a cheap one."""
        def run(failed_machine):
            eng = build(fwd_times=[0.001, 0.05, 0.001, 0.001],
                        bwd_times=[0.001, 0.05, 0.001, 0.001])
            trainer = SwiftTrainer(eng, TrainerConfig(checkpoint_interval=6))
            sched = FailureSchedule([
                FailureEvent(failed_machine, 11, FailurePhase.FORWARD)
            ])
            trace = trainer.train(13, failures=sched)
            return trace.recoveries[0].details[
                f"span_{failed_machine}_{failed_machine}"]["compute"]

        assert run(1) > run(2)

    @pytest.mark.parametrize("kwargs,expected", [
        ({"fwd_times": [0.001] * 3}, "fwd_times .* expected 4, got 3"),
        ({"fwd_times": [0.001] * 5}, "fwd_times .* expected 4, got 5"),
        ({"bwd_times": [0.002] * 3}, "bwd_times .* expected 4, got 3"),
        ({"bwd_times": []}, "bwd_times .* expected 4, got 0"),
    ])
    def test_stage_times_length_checked(self, kwargs, expected):
        """Too short used to be an IndexError inside the simulator, too
        long was silently ignored; both name the expected length now."""
        with pytest.raises(ConfigurationError, match=expected):
            build(**kwargs)


class TestMicrobatchCounts:
    @pytest.mark.parametrize("m", [1, 2, 8])
    def test_any_microbatch_count_trains_and_recovers(self, m):
        ref = build(num_microbatches=m)
        SwiftTrainer(ref, TrainerConfig(checkpoint_interval=6)).train(12)
        eng = build(num_microbatches=m)
        trainer = SwiftTrainer(eng, TrainerConfig(checkpoint_interval=6))
        sched = FailureSchedule([FailureEvent(3, 9, FailurePhase.BACKWARD)])
        trainer.train(12, failures=sched)
        assert states_allclose(pipeline_states(ref), pipeline_states(eng),
                               atol=1e-9)

    def test_more_microbatches_lower_bubble_ratio(self):
        small = build(num_microbatches=2).timing()
        large = build(num_microbatches=16).timing()
        ratio = lambda t: sum(t.stage_bubble) / (4 * t.iteration_time)  # noqa: E731
        assert ratio(large) < ratio(small)
