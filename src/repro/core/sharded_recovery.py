"""Sharded replication recovery: FSDP + Swift (paper Section 8).

Recovers an :class:`~repro.parallel.fsdp.FSDPEngine` from a machine
failure.  The flow generalizes plain replication-based recovery:

1. detect the failure;
2. undo partially applied updates on surviving *owners* (shard-wise
   update-undo — only the shards updated past the consensus roll back);
3. replacements join;
4. dead workers are rebuilt from the surviving copies of their shards
   (the mirrors on another machine);
5. mirrors are re-established and the full parameter set is re-gathered
   so every worker's compute copy is consistent.

If both copies of any shard died (a two-machine failure hitting an
owner/mirror pair), recovery raises :class:`~repro.errors.RecoveryError`
before touching any state.  The trainer's periodic global checkpoint of
every rank's owned shards (``FSDPWorker.full_state``) exists for exactly
that case — the catastrophic-failure net of Section 3 — and
``checkpoint_only`` restores a sharded engine from it
(:mod:`repro.core.global_restart`), but no engine falls back when
replication gives up.
"""

from __future__ import annotations

from repro.cluster.clock import SimClock
from repro.core.detector import FailureDetector
from repro.core.replication import (
    REPLACEMENT_JOIN_TIME,
    UNDO_KERNEL_TIME,
    RecoveryReport,
)
from repro.core.undo import resolve_dp_consistency
from repro.parallel.fsdp import FSDPEngine
from repro.utils.cow import StateView

__all__ = ["ShardedReplicationRecovery"]


class ShardedReplicationRecovery:
    """Restores lost shards from their cross-machine mirrors."""

    def __init__(
        self,
        engine: FSDPEngine,
        detector: FailureDetector,
        clock: SimClock,
        replacement_join_time: float = REPLACEMENT_JOIN_TIME,
    ):
        self.engine = engine
        self.detector = detector
        self.clock = clock
        self.replacement_join_time = replacement_join_time

    def recover(self) -> RecoveryReport:
        detection = self.detector.detect()
        dead_machines = {
            m.machine_id for m in self.engine.cluster.failed_machines()
        }
        if not dead_machines:
            dead_machines = {detection.machine_id}

        # 1. locate a live source for every shard BEFORE touching state —
        # if any shard is unrecoverable we must not half-recover
        sources: dict[str, tuple[str, int]] = {}
        for name in self.engine.plan.owner:
            sources[name] = self.engine.shard_source(name, dead_machines)

        # 2. shard-wise update-undo on surviving owners
        undone = resolve_dp_consistency(self.engine).num_undone
        undo_time = UNDO_KERNEL_TIME if undone else 0.0
        self.clock.advance(undo_time, "undo")

        # 3. replacements join
        for machine_id in dead_machines:
            self.engine.cluster.replace_machine(machine_id)
        self.clock.advance(self.replacement_join_time, "replacement_join")
        dead_ranks = [
            w.rank for w in self.engine.workers if w.machine_id in dead_machines
        ]

        # 4. dead workers are rebuilt from the surviving copies of the
        # shards they owned, keyed as ``FSDPWorker.full_state`` keys them.
        # shard_state already exports private arrays, and mirror dicts are
        # rebound (never mutated in place) by _sync_mirrors, so a read-only
        # view suffices — the load copies on ingest.  Every shard's
        # transfer is charged, a live owner's included.
        restored_bytes = 0
        lost: dict[int, dict] = {rank: {} for rank in dead_ranks}
        for name, (kind, src_rank) in sources.items():
            src = self.engine.workers[src_rank]
            state = StateView.of(
                src.shard_state(name) if kind == "owner"
                else dict(src.mirrors[name])
            )
            restored_bytes += state.nbytes
            owner = self.engine.plan.owner[name]
            if owner in lost:
                lost[owner].update(
                    (f"{name}/{key}", arr) for key, arr in state.items()
                )
        for rank, state in lost.items():
            self.engine.restore_shard(rank, state)

        # 5. re-mirror everything and re-gather full parameters onto every
        # (now live) worker
        self.engine.finish_restore(self.engine.iteration)

        restore_time = (
            restored_bytes / self.engine.cluster.bandwidth.network
        )
        self.clock.advance(restore_time, "shard_restore")

        return RecoveryReport(
            strategy="sharded_replication",
            failed_machines=sorted(dead_machines),
            resume_iteration=self.engine.iteration,
            lost_iterations=0,
            detection_time=detection.detection_time,
            init_time=self.replacement_join_time,
            undo_time=undo_time,
            restore_time=restore_time,
            details={
                "restored_bytes": restored_bytes,
                "undone_params": undone,
                "rebuilt_ranks": dead_ranks,
            },
        )
