"""Replication-based recovery for data parallelism (Section 4, Figure 5).

Flow after a machine failure:

1. detect the failure (async error → KV flag → aborts);
2. surviving workers *undo* any partially applied updates, returning every
   replica to the consistent iteration-start state;
3. a replacement machine joins;
4. one surviving replica broadcasts the full model state (parameters +
   optimizer state), priced on its byte count, and each replacement takes
   it in the retired worker's model and optimizer — no init is drawn.
   Survivors that still share one arena are joined: the replacement's
   leaves become views of that arena, so nothing is copied and nothing is
   compared when the iteration re-runs.  From private replicas, the first
   survivor's state is written into the replacement's own leaves;
5. everyone resumes from the consensus iteration.

No checkpoint load, no lost-iteration recomputation — which is why the
paper measures a 98.9% / 98.1% recovery-time reduction vs. global
checkpointing / CheckFreq / Elastic Horovod (Figure 8a).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.clock import SimClock
from repro.comm.collectives import CollectiveGroup
from repro.core.detector import FailureDetector
from repro.core.undo import UndoReport, resolve_dp_consistency
from repro.errors import RecoveryError
from repro.parallel.data_parallel import DataParallelEngine

__all__ = ["RecoveryReport", "ReplicationRecovery", "REPLACEMENT_JOIN_TIME",
           "LOGGING_INIT_TIME", "UNDO_KERNEL_TIME"]

#: seconds to provision a replacement machine, the paper's "initialization
#: time" (§7.1), wherever a join is charged or priced
REPLACEMENT_JOIN_TIME = 5.0
#: setup a logging recovery pays with the join: CUDA stream + threads
LOGGING_INIT_TIME = 1.0
#: GPU time of the update-undo kernels (§4), charged once per recovery
#: that undid anything, on every mechanism and in the replication price
UNDO_KERNEL_TIME = 0.05


@dataclass
class RecoveryReport:
    """Timing/outcome record shared by both recovery mechanisms."""

    strategy: str
    failed_machines: list[int]
    #: iteration training resumes from
    resume_iteration: int
    #: iterations of work that had to be re-computed (0 for replication)
    lost_iterations: int = 0
    detection_time: float = 0.0
    #: replacement join, plus the logging init for a logging recovery
    init_time: float = 0.0
    undo_time: float = 0.0
    #: replica broadcast (replication) or replay+transfer (logging)
    restore_time: float = 0.0
    details: dict = field(default_factory=dict)

    @property
    def recovery_time(self) -> float:
        """Paper's 'recovery time': from replacement join to pre-failure
        iteration (detection and init are reported separately)."""
        return self.undo_time + self.restore_time

    @property
    def total_time(self) -> float:
        return self.detection_time + self.init_time + self.recovery_time


class ReplicationRecovery:
    """Recovers a data-parallel job from surviving replicas (§4).

    Survivors undo any partial update (invertible optimizers), a
    replacement joins on the failed machine's slot, and one surviving
    replica broadcasts its state — zero recomputation.  Built for you by
    the ``"replication"`` recovery policy:

    >>> from repro.api import (ClusterSpec, Experiment, ModelSpec,
    ...                        ParallelismSpec)
    >>> session = Experiment(
    ...     model=ModelSpec(family="mlp", dim=4, hidden_dim=8),
    ...     cluster=ClusterSpec(num_machines=2, devices_per_machine=1),
    ...     parallelism=ParallelismSpec(kind="dp", num_workers=2),
    ... ).build()
    >>> type(session.recovery).__name__
    'ReplicationRecovery'
    """

    def __init__(
        self,
        engine: DataParallelEngine,
        detector: FailureDetector,
        clock: SimClock,
        replacement_join_time: float = REPLACEMENT_JOIN_TIME,
    ):
        self.engine = engine
        self.detector = detector
        self.clock = clock
        self.replacement_join_time = replacement_join_time

    def recover(self) -> RecoveryReport:
        """Run the full replication-recovery procedure."""
        detection = self.detector.detect()
        # multiple simultaneous failures are handled jointly (Appendix B):
        # every failed machine's workers are rebuilt from the same replica
        failed_machines = [
            m.machine_id for m in self.engine.cluster.failed_machines()
        ]
        if not failed_machines:
            failed_machines = [detection.machine_id]

        survivors = self.engine.alive_workers()
        if not survivors:
            raise RecoveryError(
                "no surviving replica: replication-based recovery is "
                "impossible (fall back to global checkpointing)"
            )

        # 2. update-undo on survivors
        undo_report: UndoReport = resolve_dp_consistency(self.engine)
        undo_time = UNDO_KERNEL_TIME if undo_report.num_undone else 0.0
        self.clock.advance(undo_time, "undo")
        # what one survivor broadcasts: its full_state()'s bytes
        nbytes = self.engine.state_nbytes()

        # 3. replacements join (concurrently)
        for machine_id in failed_machines:
            self.engine.cluster.replace_machine(machine_id)
        self.clock.advance(self.replacement_join_time, "replacement_join")
        replaced = [
            w.rank for w in self.engine.workers
            if w.machine_id in failed_machines
        ]

        # 4. broadcast the surviving state to the replacements
        group = CollectiveGroup(
            self.engine.cluster,
            {w.rank: w.device for w in self.engine.workers},
        )
        broadcast_time = group.broadcast_time(nbytes)
        self.engine.restore_replicas(replaced)
        self.clock.advance(broadcast_time, "replica_broadcast")

        return RecoveryReport(
            strategy="replication",
            failed_machines=failed_machines,
            resume_iteration=self.engine.iteration,
            lost_iterations=0,
            detection_time=detection.detection_time,
            init_time=self.replacement_join_time,
            undo_time=undo_time,
            restore_time=broadcast_time,
            details={
                "undone_params": undo_report.num_undone,
                "broadcast_bytes": nbytes,
                "replacement_ranks": replaced,
            },
        )
