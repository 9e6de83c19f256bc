"""Logging-based recovery: replay the failed workers from the log (Section 5).

After a machine failure in pipeline-parallel training:

1. detect; surviving stages undo past-consensus updates (Section 6);
2. surviving upstream workers flush unlogged data and upload their logging
   files to the global store (Figure 6b steps 1-3);
3. the replacement loads the latest global checkpoint for the failed
   stages and *replays* the logged tensors in timestamp order, re-running
   only the failed machine's computation graph — without pipeline bubbles
   (Figure 1b);
4. with **parallel recovery** (Section 5.2, Figure 7), the replay of each
   iteration's micro-batches is split round-robin over ``d`` recovery
   workers; gradients are all-reduced, which is logically equivalent to
   sequential replay.

Replay *is* program interpretation: the failed workers' own instruction
streams, run by the one interpreter in
:meth:`PipelineEngine.replay_streams
<repro.parallel.pipeline.PipelineEngine.replay_streams>` with every
``Recv*`` from a survivor served by the tensor log.  This module decides
*who* replays (the scope), drives the helpers and their gradient sum (the
orchestration), and prices the result (the timing model); it executes no
instruction itself, so every registered schedule — interleaved ones
included — recovers the same way.

The recovery *scope* is the failed machine's group (selective logging
widens it to the whole group, Section 5.3): surviving stages keep their
state and simply wait.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.clock import SimClock
from repro.core.checkpoint import CheckpointManager
from repro.core.detector import FailureDetector
from repro.core.replication import (
    LOGGING_INIT_TIME,
    REPLACEMENT_JOIN_TIME,
    UNDO_KERNEL_TIME,
    RecoveryReport,
)
from repro.core.tlog import TensorLog
from repro.core.undo import resolve_pipeline_consistency
from repro.errors import RecoveryError
from repro.cluster.storage import pipelined_transfer_time
from repro.parallel.pipeline import PipelineEngine, PipelineStage

__all__ = ["LoggingRecovery"]


class LoggingRecovery:
    """Recovers failed pipeline stages from the tensor log (§5).

    Failed stages are reloaded in place from the last global checkpoint
    — the engine keeps every stage, and ``restore_shard`` loads the
    checkpoint into it — and re-run their own instruction streams with
    boundary inputs read from the sender-side log, under any schedule
    (``virtual_stages > 1`` included); ``parallel_degree > 1`` splits
    each iteration's micro-batches across recovery workers (§5.2).
    Built for you by the ``"logging"`` recovery policy:

    >>> from repro.api import (ClusterSpec, Experiment, ModelSpec,
    ...                        ParallelismSpec)
    >>> session = Experiment(
    ...     model=ModelSpec(family="mlp", dim=4, hidden_dim=8, depth=2),
    ...     cluster=ClusterSpec(num_machines=2, devices_per_machine=1),
    ...     parallelism=ParallelismSpec(kind="pp", num_workers=2,
    ...                                 num_microbatches=2),
    ... ).build()
    >>> type(session.recovery).__name__
    'LoggingRecovery'
    """

    def __init__(
        self,
        engine: PipelineEngine,
        tlog: TensorLog,
        checkpoints: CheckpointManager,
        detector: FailureDetector,
        clock: SimClock,
        parallel_degree: int = 1,
        replacement_join_time: float = REPLACEMENT_JOIN_TIME,
        transfer_chunks: int = 8,
    ):
        self.engine = engine
        self.tlog = tlog
        self.checkpoints = checkpoints
        self.detector = detector
        self.clock = clock
        self.parallel_degree = max(1, int(parallel_degree))
        self.replacement_join_time = replacement_join_time
        self.transfer_chunks = transfer_chunks

    # -- scope ------------------------------------------------------------
    def failed_stages(self, failed_machines: list[int]) -> list[int]:
        """Every stage on a failed machine's *group*, ascending.

        With selective logging intra-group traffic is unlogged (Section
        5.3), so the whole group rolls back with the failed machine.
        """
        grouping = self.tlog.grouping
        machines: set[int] = set()
        for m in failed_machines:
            if grouping is None:
                machines.add(m)
            else:
                machines.update(grouping.group_machines(m))
        ids = [
            s.stage_id for s in self.engine.stages if s.machine_id in machines
        ]
        if not ids:
            raise RecoveryError(f"no stages placed on machines {failed_machines}")
        return ids

    def independent_portions(self, stage_ids: list[int]) -> list[list[int]]:
        """``stage_ids`` split into sets that exchange no tensor.

        Failed stages joined by a pipeline edge hand tensors to each
        other during replay and finish together; portions separated by
        surviving (logging) machines recover independently and
        concurrently (Appendix B), which is what the timing model charges.
        """
        edges = self.engine.program().stage_edges()
        portions: list[list[int]] = []
        for sid in stage_ids:
            if portions and (portions[-1][-1], sid) in edges:
                portions[-1].append(sid)
            else:
                portions.append([sid])
        if len(portions) > 1 and (portions[-1][-1], portions[0][0]) in edges:
            portions[0] = portions.pop() + portions[0]
        return portions

    # -- orchestration of the numeric replay ---------------------------------
    def _replay(
        self, stages: dict[int, PipelineStage], iterations: range
    ) -> None:
        """Replay the lost iterations, optionally data-parallel (Figure 7).

        Recovery worker ``w`` of ``d`` runs the stages' streams filtered
        to micro-batches ``w, w + d, ...``, adding into each failed
        stage's own gradient buffer, seeded per worker
        (:meth:`PipelineStage.seed_grads`); the per-worker buckets are
        summed in rank order — bit-deterministic, logically equal to
        sequential replay — before the one update.
        """
        engine, degree = self.engine, self.parallel_degree
        m = engine.num_microbatches
        logged = lambda *key: self.tlog.query(*key).tensor  # noqa: E731
        # per stage: one (degree, size) matrix of bucket snapshots, reused
        # every iteration
        buckets = {sid: np.empty((degree, stage.grads.size))
                   for sid, stage in stages.items()}
        for iteration in iterations:
            batch = engine.microbatches(iteration)
            for worker in range(degree):
                for stage in stages.values():
                    stage.seed_grads()
                engine.replay_streams(
                    stages, iteration, batch, logged,
                    range(worker, m, degree),
                )
                for sid, stage in stages.items():
                    np.copyto(buckets[sid][worker], stage.grads.data)
            for sid, stage in stages.items():
                np.copyto(stage.grads.data, buckets[sid][0])
                for worker in range(1, degree):
                    stage.grads.data += buckets[sid][worker]
            engine.apply_updates(stages)

    # -- timing model ---------------------------------------------------------
    def _replay_time(
        self, stage_ids: list[int], iterations: range
    ) -> dict[str, float]:
        """Price replaying ``iterations`` on one independent portion
        (Figure 6b/6c flow)."""
        eng = self.engine
        m = eng.num_microbatches
        degree = self.parallel_degree
        # Replay pipelines micro-batches through the portion with no
        # waiting on other stages (Figure 1b): fill it once, then one
        # micro-batch per bottleneck-stage slot.  Parallel recovery divides
        # the micro-batches across `degree` recovery workers (Figure 7).
        stage_fb = [eng.fwd_times[sid] + eng.bwd_times[sid] for sid in stage_ids]
        mb_per_worker = -(-m // degree)  # ceil
        per_iteration = sum(stage_fb) + (mb_per_worker - 1) * max(stage_fb)
        compute = len(iterations) * per_iteration
        sync = 0.0
        if degree > 1:
            # per-iteration gradient all-reduce among recovery workers
            state_bytes = sum(eng.stages[sid].state_nbytes()
                              for sid in stage_ids)
            sync = len(iterations) * 2.0 * (degree - 1) / degree * (
                state_bytes / eng.cluster.bandwidth.network
            )
        # log-file movement: flush (PCIe+disk) → upload → download, chunked
        log_bytes = self.tlog.upload_bytes_for(iterations, exclude_machine=-1)
        transfer = pipelined_transfer_time(
            log_bytes,
            [
                eng.cluster.bandwidth.pcie,
                eng.cluster.machines[0].disk.write_bw,
                eng.cluster.bandwidth.network,  # upload
                eng.cluster.bandwidth.network,  # download
            ],
            num_chunks=self.transfer_chunks,
        )
        # transfer pipelines with replay itself (chunked files): charge the max
        replay_wall = max(compute + sync, transfer)
        return {
            "compute": compute,
            "sync": sync,
            "transfer": transfer,
            "replay_wall": replay_wall,
            "log_bytes": float(log_bytes),
        }

    # -- orchestration ----------------------------------------------------------
    def recover(self) -> RecoveryReport:
        detection = self.detector.detect()
        failed_machines = [detection.machine_id] + [
            mm.machine_id
            for mm in self.engine.cluster.failed_machines()
            if mm.machine_id != detection.machine_id
        ]

        # whatever can refuse does so before anything is touched
        ckpt_iter = self.checkpoints.latest_iteration
        if ckpt_iter is None:
            raise RecoveryError("no global checkpoint exists to replay from")
        stage_ids = self.failed_stages(failed_machines)

        # surviving stages: consensus + undo
        undo_report = resolve_pipeline_consistency(self.engine)
        consensus = undo_report.consensus_iteration
        undo_time = UNDO_KERNEL_TIME if undo_report.num_undone else 0.0
        self.clock.advance(undo_time, "undo")

        # drop the failed machines' own (lost) records
        for machine_id in failed_machines:
            self.tlog.drop_machine(machine_id)

        # replacement joins (plus logging re-initialization, Section 7.1)
        for machine_id in failed_machines:
            self.engine.cluster.replace_machine(machine_id)
        init_time = self.replacement_join_time + LOGGING_INIT_TIME
        self.clock.advance(init_time, "replacement_join")

        # reload the failed stages in place — every checkpoint read
        # before the first loads — and replay them (numerics)
        lost = range(ckpt_iter, consensus)
        loaded = {sid: self.checkpoints.load(sid, ckpt_iter)
                  for sid in stage_ids}
        for sid, (state, _) in loaded.items():
            self.engine.restore_shard(sid, state)
        stages = {sid: self.engine.stages[sid] for sid in stage_ids}
        self._replay(stages, lost)
        for sid, stage in stages.items():
            if stage.iteration != consensus:
                raise RecoveryError(
                    f"replayed stage {sid} is at iteration "
                    f"{stage.iteration}, expected {consensus}"
                )

        # price it: independent portions recover concurrently (Appendix
        # B), so wall time is the max across them
        restore_time = 0.0
        timing_details: dict = {}
        for portion in self.independent_portions(stage_ids):
            timing = self._replay_time(portion, lost)
            load_time = max(loaded[sid][1] for sid in portion)  # parallel
            restore_time = max(restore_time, load_time + timing["replay_wall"])
            timing_details[f"span_{portion[0]}_{portion[-1]}"] = timing

        self.clock.advance(restore_time, "logging_replay")
        self.engine.iteration = consensus

        return RecoveryReport(
            strategy="logging" if self.parallel_degree == 1 else "logging+pr",
            failed_machines=failed_machines,
            resume_iteration=consensus,
            lost_iterations=len(lost),
            detection_time=detection.detection_time,
            init_time=init_time,
            undo_time=undo_time,
            restore_time=restore_time,
            details={**timing_details, "stage_ids": stage_ids,
                     "checkpoint_iteration": ckpt_iter,
                     "undone_params": undo_report.num_undone},
        )
