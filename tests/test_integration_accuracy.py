"""End-to-end training accuracy (Figure 11): recovery does not hurt learning.

The paper finetunes BERT-Large (Adam, 8-GPU pipeline, kill + extra update +
undo) and ViT-Base/32 (SGD-momentum, 12-GPU pipeline, logging recovery) and
shows the loss/accuracy curves are indistinguishable from failure-free
runs.  Here the same protocols run on scaled-down models over synthetic
tasks, with exact curve comparison (which is stronger than eyeballing).
"""

import numpy as np
import pytest

from repro.cluster import Cluster, FailureEvent, FailurePhase, FailureSchedule
from repro.core import SwiftTrainer, TrainerConfig
from repro.data import ImageTask, TokenTask
from repro.models import make_bert, make_vit
from repro.nn import CrossEntropyLoss
from repro.optim import Adam, SGDMomentum
from repro.parallel import PipelineEngine


def bert_pipeline(cluster):
    """Small BERT on a 4-stage pipeline with Adam (Figure 11a protocol)."""
    task = TokenTask(vocab_size=16, seq_len=4, batch_size=8, seed=11)
    return PipelineEngine(
        cluster,
        model_factory=lambda: make_bert(
            vocab_size=16, max_len=4, dim=16, depth=2, num_heads=2, seed=21
        ),
        partition_sizes=[1, 1, 1, 1],  # embed, layer, layer, head
        placement=[(0, 0), (0, 1), (1, 0), (1, 1)],
        num_microbatches=2,
        opt_factory=lambda m: Adam(m, lr=5e-3),
        loss_factory=CrossEntropyLoss,
        task=task,
    )


def vit_pipeline(cluster):
    """Small ViT on a 3-machine pipeline with SGD-M (Figure 11b protocol)."""
    task = ImageTask(image_size=8, num_classes=4, batch_size=8, seed=12)
    return PipelineEngine(
        cluster,
        model_factory=lambda: make_vit(
            image_size=8, patch=4, dim=16, depth=2, num_heads=2,
            num_classes=4, seed=22,
        ),
        partition_sizes=[2, 1, 2],  # (patch+pos), layer, (layer+head)
        placement=[(0, 0), (1, 0), (2, 0)],
        num_microbatches=2,
        opt_factory=lambda m: SGDMomentum(m, lr=0.05, momentum=0.9),
        loss_factory=CrossEntropyLoss,
        task=task,
    )


class TestFig11aBertUndo:
    """Kill mid-update at iteration 25 (the paper kills at 500)."""

    def run(self, schedule=None, iterations=60):
        cluster = Cluster(2, devices_per_machine=2)
        engine = bert_pipeline(cluster)
        trainer = SwiftTrainer(engine, TrainerConfig(checkpoint_interval=20))
        trace = trainer.train(iterations, failures=schedule)
        return engine, trace

    def test_loss_curve_matches_failure_free(self):
        _, ref = self.run()
        sched = FailureSchedule([
            FailureEvent(1, 25, FailurePhase.MID_UPDATE, after_updates=2)
        ])
        _, rec = self.run(schedule=sched)
        assert len(ref.losses) == len(rec.losses)
        # post-recovery curve within fp-undo tolerance of failure-free
        assert np.allclose(ref.losses, rec.losses, rtol=1e-4, atol=1e-6)

    def test_training_actually_learns(self):
        _, trace = self.run()
        first = np.mean(trace.losses[:5])
        last = np.mean(trace.losses[-5:])
        assert last < 0.7 * first

    def test_final_loss_unaffected_by_failure(self):
        _, ref = self.run()
        sched = FailureSchedule([
            FailureEvent(0, 30, FailurePhase.MID_UPDATE, after_updates=1)
        ])
        _, rec = self.run(schedule=sched)
        assert rec.losses[-1] == pytest.approx(ref.losses[-1], rel=1e-5)


class TestFig11bVitLogging:
    """Kill the middle machine; logging recovery, no grouping, no PR."""

    def run(self, schedule=None, iterations=60):
        cluster = Cluster(3, devices_per_machine=1)
        engine = vit_pipeline(cluster)
        trainer = SwiftTrainer(engine, TrainerConfig(checkpoint_interval=20))
        trace = trainer.train(iterations, failures=schedule)
        return engine, trace

    def test_loss_curve_matches_failure_free(self):
        _, ref = self.run()
        sched = FailureSchedule([
            FailureEvent(1, 25, FailurePhase.FORWARD)  # the middle machine
        ])
        _, rec = self.run(schedule=sched)
        # pure replay: curves identical bit-for-bit
        assert np.array_equal(ref.losses, rec.losses)

    def test_learns(self):
        _, trace = self.run()
        assert np.mean(trace.losses[-5:]) < 0.8 * np.mean(trace.losses[:5])

    def test_two_failures_still_match(self):
        _, ref = self.run()
        sched = FailureSchedule([
            FailureEvent(1, 22, FailurePhase.FORWARD),
            FailureEvent(2, 45, FailurePhase.BACKWARD),
        ])
        _, rec = self.run(schedule=sched)
        assert np.array_equal(ref.losses, rec.losses)
        assert len(rec.recoveries) if hasattr(rec, "recoveries") else True


class TestAccuracyMetric:
    def test_accuracy_improves_with_training(self):
        cluster = Cluster(2, devices_per_machine=2)
        engine = bert_pipeline(cluster)
        task = engine.task

        def accuracy(at_iteration):
            # stitch the live pipeline stages into one model for eval
            x, y = task.batch(10_000 + at_iteration)
            h = x
            for stage in engine.stages:
                h = stage.model(h)
            lf = CrossEntropyLoss()
            lf(h, y)
            return lf.accuracy()

        trainer = SwiftTrainer(engine, TrainerConfig(checkpoint_interval=50))
        before = accuracy(0)
        trainer.train(80)
        after = accuracy(1)
        assert after > before
