"""Shared live-engine helpers for ablation benchmarks."""

from __future__ import annotations

import numpy as np

from repro.cluster import Cluster, FailureEvent, FailurePhase, FailureSchedule
from repro.core import SwiftTrainer, TrainerConfig
from repro.data import ClassificationTask
from repro.models import make_mlp
from repro.nn import CrossEntropyLoss
from repro.optim import Adam
from repro.parallel import PipelineEngine


def small_pipeline(cluster: Cluster) -> PipelineEngine:
    task = ClassificationTask(dim=8, num_classes=4, batch_size=16, seed=3)
    return PipelineEngine(
        cluster,
        model_factory=lambda: make_mlp(8, 16, 4, depth=3, seed=7),
        partition_sizes=[2, 2, 2, 1],
        placement=[(0, 0), (1, 0), (2, 0), (3, 0)],
        num_microbatches=4,
        opt_factory=lambda m: Adam(m, lr=0.01),
        loss_factory=CrossEntropyLoss,
        task=task,
    )


def live_recovery_states(degree: int, iterations: int = 20,
                         fail_at: int = 13) -> dict[int, dict[str, np.ndarray]]:
    """Train a live 4-stage pipeline through a failure at `fail_at` with the
    given parallel-recovery degree; return per-stage final state dicts."""
    cluster = Cluster(4, devices_per_machine=1)
    engine = small_pipeline(cluster)
    trainer = SwiftTrainer(
        engine,
        TrainerConfig(checkpoint_interval=8, parallel_recovery_degree=degree),
    )
    schedule = FailureSchedule(
        [FailureEvent(2, fail_at, FailurePhase.FORWARD)]
    )
    trainer.train(iterations, failures=schedule)
    return {s.stage_id: s.model.state_dict() for s in engine.stages}
