"""Data-parallel and pipeline engine behaviour (pre-recovery)."""

from collections import Counter

import numpy as np
import pytest

from helpers import make_dp_engine, make_pp_engine, pipeline_states
from repro.cluster import Cluster, FailureEvent, FailurePhase
from repro.data import ClassificationTask, ImageTask
from repro.errors import ConfigurationError, MachineFailure
from repro.models import make_mlp
from repro.nn import (
    BatchNorm2d,
    Conv2d,
    CrossEntropyLoss,
    Dropout,
    GlobalAvgPool2d,
    Linear,
    Module,
    ReLU,
    Sequential,
)
from repro.optim import SGDMomentum
from repro.parallel import (
    DataParallelEngine,
    PipelineEngine,
    PipelineStage,
    megatron_figure2_layout,
    schedule_names,
    verify_program,
)
from repro.utils.seeding import RngStream


class TestDataParallelEngine:
    def test_replicas_start_identical(self):
        eng = make_dp_engine()
        assert eng.replicas_consistent()

    def test_a_model_with_buffers_is_refused_by_name(self):
        """BatchNorm running statistics have no DP semantic yet (broadcast
        or SyncBN): the engine names them instead of crashing in the
        first all-reduce."""
        from repro.models import make_wide_resnet

        buffers = [n for n, p in make_wide_resnet(3, 4).named_parameters()
                   if not p.requires_grad]
        assert len(buffers) == 14
        with pytest.raises(ConfigurationError) as err:
            DataParallelEngine(
                Cluster(2, devices_per_machine=1),
                model_factory=lambda: make_wide_resnet(3, 4),
                opt_factory=lambda m: SGDMomentum(m, lr=0.05),
                loss_factory=CrossEntropyLoss,
                task=ImageTask(num_classes=3, image_size=8, batch_size=4),
                placement=[(0, 0), (1, 0)],
            )
        assert all(name in str(err.value) for name in buffers)

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
            grads = ref_opt.grad_buffer()
            lf = CrossEntropyLoss()
            lf(ref_model(x), y)
            ref_model.backward(lf.backward())
            # shard-mean of shard-gradients == full-batch gradient here
            # because shards are equal-sized
            ref_opt.step_flat(grads.data)
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
            grads = ref_opt.grad_buffer()
            xs = np.array_split(x, 4)
            ys = np.array_split(y, 4)
            for mb in range(4):
                lf = CrossEntropyLoss()
                lf(ref_model(xs[mb]), ys[mb])
                ref_model.backward(lf.backward() / 4)
            ref_opt.step_flat(grads.data)
        ref = ref_model.state_dict()
        # map stage-local layer indices back to model-global indices
        offsets = [0, 2, 4, 6]  # cumulative partition sizes [2,2,2,1]
        for sid, stage in enumerate(eng.stages):
            for k, v in stage.model.state_dict().items():
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


def dropout_mlp() -> Sequential:
    rng = RngStream(5, "stash")
    return Sequential([
        Linear(8, 16, rng=rng.child("a")), ReLU(), Dropout(0.5, rng=rng),
        Linear(16, 16, rng=rng.child("b")), ReLU(),
        Linear(16, 4, rng=rng.child("c")),
    ])


def batchnorm_cnn() -> Sequential:
    rng = RngStream(6, "stash")
    return Sequential([
        Conv2d(3, 4, 3, padding=1, rng=rng.child("conv")), BatchNorm2d(4),
        ReLU(), GlobalAvgPool2d(), Linear(4, 3, rng=rng.child("fc")),
    ])


class TestStashedLayerCaches:
    """A backward differentiates its own forward from the layer caches
    that forward stashed; nothing is run a second time."""

    def assert_matches_monolithic(self, model_factory, partition, task):
        """A PP-2 run of two iterations equals one model trained
        micro-batch by micro-batch (forward, then its backward)."""
        m = 4
        eng = PipelineEngine(
            Cluster(2, devices_per_machine=1), model_factory=model_factory,
            partition_sizes=partition, placement=[(0, 0), (1, 0)],
            num_microbatches=m,
            opt_factory=lambda mod: SGDMomentum(mod, lr=0.05, momentum=0.9),
            loss_factory=CrossEntropyLoss, task=task,
        )
        ref = model_factory()
        ref_opt = SGDMomentum(ref, lr=0.05, momentum=0.9)
        for it in range(2):
            eng.run_iteration()
            grads = ref_opt.grad_buffer()
            x, y = task.batch(it)
            for xb, yb in zip(np.array_split(x, m), np.array_split(y, m)):
                loss = CrossEntropyLoss()
                loss(ref(xb), yb)
                ref.backward(loss.backward() / m)
            ref_opt.step_flat(grads.data)
        want = ref.state_dict()
        for stage, offset in zip(eng.stages, (0, partition[0])):
            for key, value in stage.model.state_dict().items():
                layer, rest = key.split(".", 1)
                assert np.allclose(
                    want[f"{int(layer) + offset}.{rest}"], value, atol=1e-9
                ), key

    def test_dropout_backward_uses_the_forward_mask(self):
        task = ClassificationTask(dim=8, num_classes=4, batch_size=16, seed=3)
        self.assert_matches_monolithic(dropout_mlp, [3, 3], task)

    def test_batchnorm_running_stats_move_once_per_microbatch(self):
        task = ImageTask(image_size=4, num_classes=3, batch_size=8, seed=1)
        self.assert_matches_monolithic(batchnorm_cnn, [3, 2], task)

    @pytest.mark.parametrize("schedule", schedule_names())
    def test_each_layer_forwards_once_per_microbatch(self, schedule,
                                                     monkeypatch):
        eng = make_pp_engine(schedule=schedule, depth=8)
        calls = Counter()
        call = Module.__call__

        def counted(module, x):
            if not module._modules:
                calls[id(module)] += 1
            return call(module, x)

        monkeypatch.setattr(Module, "__call__", counted)
        for _ in range(2):
            eng.run_iteration()
        leaves = [id(layer) for s in eng.stages for layer in s.model.layers]
        assert calls == {leaf: 2 * eng.num_microbatches for leaf in leaves}

    @pytest.mark.parametrize("schedule", schedule_names())
    def test_stash_holds_only_the_in_flight_forwards(self, schedule,
                                                     monkeypatch):
        eng = make_pp_engine(schedule=schedule, depth=8, num_microbatches=8)
        peak = Counter()
        forward_mb = PipelineStage.forward_mb

        def watched(stage, *args, **kwargs):
            out = forward_mb(stage, *args, **kwargs)
            peak[stage.stage_id] = max(peak[stage.stage_id], len(stage.stash))
            return out

        monkeypatch.setattr(PipelineStage, "forward_mb", watched)
        eng.run_iteration()
        check = verify_program(eng.program())
        assert tuple(peak[s] for s in range(eng.num_stages)) \
            == check.peak_in_flight
        assert not any(s.stash for s in eng.stages)

    def test_failure_and_clear_caches_leave_no_stash(self, monkeypatch):
        eng = make_pp_engine()
        held = {}
        clear = PipelineStage.clear_caches

        def spy(stage):
            held[stage.stage_id] = len(stage.stash)
            clear(stage)

        monkeypatch.setattr(PipelineStage, "clear_caches", spy)
        result = eng.run_iteration(failure=FailureEvent(
            3, 0, FailurePhase.BACKWARD, after_updates=1))
        assert result.failed
        assert held[0] > 0  # the crash caught stage 0 with forwards out
        assert not any(s.stash for s in eng.stages if s.alive)


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
