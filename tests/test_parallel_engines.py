"""Data-parallel and pipeline engine behaviour (pre-recovery)."""

import numpy as np
import pytest

from helpers import make_dp_engine, make_pp_engine, pipeline_states
from repro.cluster import Cluster, FailureEvent, FailurePhase
from repro.data import ClassificationTask
from repro.errors import ConfigurationError, MachineFailure
from repro.models import make_mlp
from repro.nn import CrossEntropyLoss
from repro.optim import SGDMomentum
from repro.parallel import (
    DataParallelEngine,
    PipelineEngine,
    megatron_figure2_layout,
)


class TestDataParallelEngine:
    def test_replicas_start_identical(self):
        eng = make_dp_engine()
        assert eng.replicas_consistent()

    def test_replicas_stay_identical(self):
        eng = make_dp_engine()
        for _ in range(5):
            eng.run_iteration()
        assert eng.replicas_consistent()

    def test_loss_decreases(self):
        eng = make_dp_engine()
        losses = [eng.run_iteration().loss for _ in range(25)]
        assert losses[-1] < losses[0]

    def test_dp_equals_single_worker_sgd(self):
        """Gradient averaging over shards == full-batch gradient."""
        eng = make_dp_engine()
        ref_model = make_mlp(8, 16, 4, seed=7)
        ref_opt = SGDMomentum(ref_model, lr=0.05, momentum=0.9, weight_decay=1e-4)
        task = ClassificationTask(dim=8, num_classes=4, batch_size=16, seed=3)
        for it in range(3):
            eng.run_iteration()
            x, y = task.batch(it)
            ref_model.zero_grad()
            lf = CrossEntropyLoss()
            lf(ref_model(x), y)
            ref_model.backward(lf.backward())
            # shard-mean of shard-gradients == full-batch gradient here
            # because shards are equal-sized
            ref_opt.step()
        a = eng.workers[0].model.state_dict()
        b = ref_model.state_dict()
        for k in a:
            assert np.allclose(a[k], b[k], atol=1e-10), k

    def test_mid_update_failure_leaves_partial_state(self):
        eng = make_dp_engine()
        eng.run_iteration()
        before = eng.workers[0].model.state_dict()
        event = FailureEvent(1, 1, FailurePhase.MID_UPDATE, after_updates=2)
        result = eng.run_iteration(failure=event)
        assert result.failed and result.failed_machine == 1
        survivor = eng.workers[0]
        assert len(survivor.updated_params) == 2
        after = survivor.model.state_dict()
        changed = [k for k in before if not np.array_equal(before[k], after[k])]
        assert len(changed) == 2  # exactly the updated parameters differ

    def test_survivor_progress_heterogeneous(self):
        eng = make_dp_engine()
        eng.run_iteration()
        event = FailureEvent(1, 1, FailurePhase.MID_UPDATE, after_updates=2)
        eng.run_iteration(failure=event, survivor_progress={0: 1, 1: 3})
        assert len(eng.workers[0].updated_params) == 1
        assert len(eng.workers[1].updated_params) == 3

    def test_forward_failure_no_updates(self):
        eng = make_dp_engine()
        eng.run_iteration()
        before = eng.workers[0].model.state_dict()
        eng.run_iteration(failure=FailureEvent(1, 1, FailurePhase.FORWARD))
        after = eng.workers[0].model.state_dict()
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_failure_sets_kv_flag(self):
        eng = make_dp_engine()
        eng.run_iteration(failure=FailureEvent(0, 0, FailurePhase.ITERATION_START))
        assert eng.cluster.kvstore.failure_raised()

    def test_clock_advances(self):
        eng = make_dp_engine()
        eng.run_iteration()
        assert eng.clock.now > 0

    def test_empty_placement_rejected(self):
        cluster = Cluster(1)
        task = ClassificationTask(dim=4, num_classes=2, batch_size=4)
        with pytest.raises(ConfigurationError):
            DataParallelEngine(
                cluster,
                model_factory=lambda: make_mlp(4, 4, 2),
                opt_factory=lambda m: SGDMomentum(m, lr=0.1),
                loss_factory=CrossEntropyLoss,
                task=task,
                placement=[],
            )


class TestPipelineEngine:
    def test_loss_decreases(self):
        eng = make_pp_engine()
        losses = [eng.run_iteration().loss for _ in range(25)]
        assert losses[-1] < losses[0] * 0.95

    def test_pipeline_equals_single_model(self):
        """Micro-batched pipeline == monolithic full-batch training."""
        eng = make_pp_engine(opt="sgdm")
        ref_model = make_mlp(8, 16, 4, depth=3, seed=7)
        ref_opt = SGDMomentum(ref_model, lr=0.05, momentum=0.9)
        task = ClassificationTask(dim=8, num_classes=4, batch_size=16, seed=3)
        for it in range(3):
            eng.run_iteration()
            x, y = task.batch(it)
            # accumulate gradients micro-batch-wise like the pipeline does
            ref_model.zero_grad()
            xs = np.array_split(x, 4)
            ys = np.array_split(y, 4)
            for mb in range(4):
                lf = CrossEntropyLoss()
                lf(ref_model(xs[mb]), ys[mb])
                ref_model.backward(lf.backward() / 4)
            ref_opt.step()
        ref = ref_model.state_dict()
        # map stage-local layer indices back to model-global indices
        offsets = [0, 2, 4, 6]  # cumulative partition sizes [2,2,2,1]
        for sid, stage in enumerate(eng.stages):
            for k, v in stage.module.state_dict().items():
                layer, rest = k.split(".", 1)
                global_key = f"{int(layer) + offsets[sid]}.{rest}"
                assert np.allclose(ref[global_key], v, atol=1e-9), global_key

    def test_per_stage_iteration_counters(self):
        eng = make_pp_engine()
        for _ in range(3):
            eng.run_iteration()
        assert all(s.iteration == 3 for s in eng.stages)

    def test_mid_update_failure_staggers_iterations(self):
        eng = make_pp_engine()
        eng.run_iteration()
        event = FailureEvent(0, 1, FailurePhase.MID_UPDATE, after_updates=2)
        result = eng.run_iteration(failure=event)
        assert result.failed
        iters = {s.stage_id: s.iteration for s in eng.stages if s.alive}
        assert set(iters.values()) == {1, 2}  # some updated, some not

    def test_cannot_run_with_dead_stage(self):
        eng = make_pp_engine()
        eng.run_iteration(failure=FailureEvent(1, 0, FailurePhase.FORWARD))
        with pytest.raises(MachineFailure):
            eng.run_iteration()

    def test_timing_includes_bubble(self):
        eng = make_pp_engine(num_microbatches=4)
        t = eng.timing()
        assert all(b >= 0 for b in t.stage_bubble)
        assert t.iteration_time > 0
        # last stage has minimal bubble in 1F1B
        assert t.stage_bubble[-1] <= t.stage_bubble[0]

    def test_microbatches_deterministic(self):
        eng = make_pp_engine()
        xs1, ys1 = eng.microbatches(5)
        xs2, ys2 = eng.microbatches(5)
        assert all(np.array_equal(a, b) for a, b in zip(xs1, xs2))
        assert all(np.array_equal(a, b) for a, b in zip(ys1, ys2))

    def test_overhead_hooks_charged(self):
        eng = make_pp_engine()
        eng.overhead_hooks.append(lambda timing: ("test_overhead", 1.5))
        result = eng.run_iteration()
        assert result.overheads["test_overhead"] == 1.5
        assert result.sim_time >= 1.5

    def test_placement_size_mismatch_rejected(self):
        cluster = Cluster(2, devices_per_machine=1)
        task = ClassificationTask(dim=8, num_classes=4, batch_size=8)
        with pytest.raises(ConfigurationError):
            PipelineEngine(
                cluster,
                model_factory=lambda: make_mlp(8, 8, 4, depth=3),
                partition_sizes=[3, 4],
                placement=[(0, 0)],
                num_microbatches=2,
                opt_factory=lambda m: SGDMomentum(m, lr=0.1),
                loss_factory=CrossEntropyLoss,
                task=task,
            )


class TestHybridLayout:
    def test_figure2_layout_loses_replicas_on_machine_failure(self):
        layout = megatron_figure2_layout()
        # both replicas of stage 0 live on machine 0
        assert not layout.stage_survives_machine_loss(0, 0)
        assert layout.stage_survives_machine_loss(0, 1)
        assert not layout.replication_covers_all_failures()

    def test_cross_machine_replicas_cover_failures(self):
        from repro.parallel import ParallelLayout, StagePlacement

        layout = ParallelLayout(
            stages=[
                StagePlacement(0, ((0,), (1,))),
                StagePlacement(1, ((0,), (1,))),
            ]
        ).validate()
        assert layout.replication_covers_all_failures()

    def test_figure2_is_pipeline_and_crosses_machines(self):
        layout = megatron_figure2_layout()
        assert layout.is_pipeline_parallel()
        assert layout.crosses_machines()

    def test_validation_rejects_bad_ids(self):
        from repro.errors import ConfigurationError
        from repro.parallel import ParallelLayout, StagePlacement

        with pytest.raises(ConfigurationError):
            ParallelLayout(stages=[StagePlacement(1, ((0,),))]).validate()
