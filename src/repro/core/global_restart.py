"""Global checkpoint-restart recovery — the de-facto baseline (Section 1).

"The training job periodically checkpoints the entire model state.  All
workers restart from the latest checkpoint when the job fails."

Unlike Swift's mechanisms, *every* worker — survivors included — loads the
checkpoint and rolls its progress back, so all iterations since the last
checkpoint are re-computed live by the training loop.  This is the
behaviour Figures 8-9 compare against; having it on the live engines lets
integration tests measure the lost-work gap against Swift on identical
numerics.

It is the one mechanism that must restore *every* engine (Section 3), so
it knows no engine type: each shard goes back through the engine's
``restore_shard``, and ``finish_restore`` does what only that engine
knows.  A sharded (FSDP) checkpoint holds owned *trainable* shards only;
non-parameter buffers are not in it and so not restored.
"""

from __future__ import annotations

from repro.cluster.clock import SimClock
from repro.core.checkpoint import CheckpointManager
from repro.core.detector import FailureDetector
from repro.core.replication import REPLACEMENT_JOIN_TIME, RecoveryReport
from repro.errors import RecoveryError

__all__ = ["GlobalCheckpointRecovery"]


class GlobalCheckpointRecovery:
    """Restart every worker from the latest global checkpoint."""

    def __init__(
        self,
        engine,
        checkpoints: CheckpointManager,
        detector: FailureDetector,
        clock: SimClock,
        replacement_join_time: float = REPLACEMENT_JOIN_TIME,
    ):
        self.engine = engine
        self.checkpoints = checkpoints
        self.detector = detector
        self.clock = clock
        self.replacement_join_time = replacement_join_time

    def recover(self) -> RecoveryReport:
        detection = self.detector.detect()
        failed_machines = [
            m.machine_id for m in self.engine.cluster.failed_machines()
        ] or [detection.machine_id]
        ckpt_iter = self.checkpoints.latest_iteration
        if ckpt_iter is None:
            raise RecoveryError("no global checkpoint exists to restart from")

        pre_failure = self.engine.iteration
        for machine_id in failed_machines:
            self.engine.cluster.replace_machine(machine_id)
        self.clock.advance(self.replacement_join_time, "replacement_join")

        # every shard is read back before the first holder is replaced, so
        # a missing or unreadable one raises with the engine as it was;
        # loads proceed in parallel -> the stall is the max
        shards = [h.shard_id for h in self.engine.state_holders()]
        loaded = [self.checkpoints.load(shard, ckpt_iter) for shard in shards]
        for shard, (state, _) in zip(shards, loaded):
            self.engine.restore_shard(shard, state)
        self.engine.finish_restore(ckpt_iter)
        load_time = max(seconds for _, seconds in loaded)
        self.clock.advance(load_time, "checkpoint_restart")

        return RecoveryReport(
            strategy="global_checkpoint_restart",
            failed_machines=failed_machines,
            resume_iteration=ckpt_iter,
            lost_iterations=pre_failure - ckpt_iter,
            detection_time=detection.detection_time,
            init_time=self.replacement_join_time,
            undo_time=0.0,
            restore_time=load_time,
            details={"checkpoint_iteration": ckpt_iter,
                     "rolled_back_workers": "all"},
        )
