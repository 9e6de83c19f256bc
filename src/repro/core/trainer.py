"""SwiftTrainer: the user-facing orchestration loop (paper Section 6 Usage).

"A user only needs to provide a user-defined function (UDF) to train for
one iteration and specify fault tolerance and training configurations.
Then fault tolerance is in place ... and recovery upon a failure can be
automatically run without requiring user involvement."

Here the "UDF" is the engine's ``run_iteration`` and the trainer supplies
everything else: periodic global checkpointing (with log garbage
collection), failure-schedule consumption, recovery dispatch, and a
training trace that the benchmark harness turns into the paper's figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from repro.cluster.clock import SimClock
from repro.cluster.failures import FailureEvent, FailurePhase, FailureSchedule
from repro.core.checkpoint import CheckpointManager, SnapshotManager
from repro.core.detector import FailureDetector
from repro.core.policies import (
    PolicyContext,
    get_recovery_policy,
    recovery_policy_names,
    resolve_strategy,
)
from repro.core.replication import REPLACEMENT_JOIN_TIME, RecoveryReport
from repro.core.strategy import FTStrategy
from repro.core.tlog import GroupingPlan, LoggingMode
from repro.errors import ConfigurationError, RecoveryError
from repro.obs import NULL_RECORDER, Recorder, record_recovery_phases
from repro.parallel.results import IterationResult

__all__ = ["TrainerConfig", "TrainingTrace", "SwiftTrainer"]


@dataclass
class TrainerConfig:
    """Fault-tolerance configuration for a training run.

    >>> TrainerConfig(checkpoint_interval=25, strategy="logging").strategy
    'logging'
    >>> TrainerConfig(strategy="teleportation")  # doctest: +ELLIPSIS
    Traceback (most recent call last):
        ...
    repro.errors.ConfigurationError: unknown strategy 'teleportation'; ...
    """

    #: global checkpoint every N iterations (the catastrophic-failure net)
    checkpoint_interval: int = 100
    #: checkpoint at iteration 0 too (before any training)
    checkpoint_at_start: bool = True
    #: workers assisting each failed worker during logging replay (§5.2)
    parallel_recovery_degree: int = 1
    #: replacement-machine provisioning time, seconds
    replacement_join_time: float = REPLACEMENT_JOIN_TIME
    #: "auto" picks the engine kind's default (``MECHANISMS_BY_KIND``;
    #: ``Experiment.plan()`` runs the whole Section 3 chain instead); any
    #: :class:`FTStrategy` value — "replication", "logging",
    #: "checkpoint_only" — may be named explicitly and is validated
    #: against the engine when the trainer is built (a mismatch raises
    #: :class:`ConfigurationError`)
    strategy: str = "auto"
    #: persist only the leaves the optimizers report dirty since the last
    #: checkpoint (delta checkpoints); every ``incremental_full_every``-th
    #: save per shard writes a full base to bound delta chains
    incremental_checkpoints: bool = False
    incremental_full_every: int = 8
    #: pool message buffers so the send+log path performs one copy into a
    #: recycled arena instead of two fresh allocations (pipeline engines)
    pooled_messaging: bool = True
    #: take a fresh global checkpoint right after every logging recovery,
    #: re-baselining the tensor log: records that lived only on the
    #: crashed machine are unrecoverable, so a *later* failure in the same
    #: checkpoint window must not need them.  Required for multi-failure
    #: scenario runs (repro.chaos); the fleet layer sets it for every job.
    checkpoint_after_recovery: bool = False

    def __post_init__(self) -> None:
        if self.checkpoint_interval < 1:
            raise ConfigurationError("checkpoint_interval must be >= 1")
        if self.parallel_recovery_degree < 1:
            raise ConfigurationError("parallel_recovery_degree must be >= 1")
        if isinstance(self.strategy, FTStrategy):
            self.strategy = self.strategy.value
        if self.strategy != "auto" and self.strategy not in recovery_policy_names():
            raise ConfigurationError(
                f"unknown strategy {self.strategy!r}; expected 'auto' or "
                f"one of {recovery_policy_names()}"
            )
        if self.incremental_full_every < 1:
            raise ConfigurationError("incremental_full_every must be >= 1")


@dataclass
class TrainingTrace:
    """Everything a benchmark needs to redraw the paper's plots.

    >>> trace = TrainingTrace(losses=[0.5, 0.4], iteration_times=[0.1, 0.1],
    ...                       iteration_numbers=[0, 1], wall_times=[0.1, 0.2])
    >>> trace.goodput(samples_per_iteration=16)
    160.0
    >>> trace.recovery_time_total
    0
    """

    losses: list[float] = field(default_factory=list)
    iteration_times: list[float] = field(default_factory=list)
    iteration_numbers: list[int] = field(default_factory=list)
    checkpoints: list[tuple[int, float]] = field(default_factory=list)
    recoveries: list[RecoveryReport] = field(default_factory=list)
    #: simulated wall-clock at the end of each completed iteration
    wall_times: list[float] = field(default_factory=list)

    def throughput(self, samples_per_iteration: int) -> list[float]:
        """Per-iteration throughput series (samples / simulated second)."""
        return [
            samples_per_iteration / t if t > 0 else 0.0
            for t in self.iteration_times
        ]

    @property
    def total_time(self) -> float:
        return self.wall_times[-1] if self.wall_times else 0.0

    @property
    def recovery_time_total(self) -> float:
        """Simulated seconds spent inside recovery paths (detection +
        replacement init + undo + restore, summed over all recoveries)."""
        return sum(r.total_time for r in self.recoveries)

    def goodput(self, samples_per_iteration: int) -> float:
        """Useful samples per simulated second over the whole run.

        Unlike :meth:`throughput` this includes every stall — checkpoints,
        detection, and recovery — so it is the number benchmarks should
        report instead of recomputing ``iterations * batch / total_time``
        ad hoc.  Useful work is the *span* of completed iterations:
        iterations recomputed after a checkpoint rollback count once
        (redone work is exactly what goodput must not credit), and an
        iteration completed *through* recovery replay rather than a
        successful step (a mid-update pipeline crash resolves forward)
        still counts, even though no loss row was recorded for it.
        A non-finite run time (a NaN clock reading) gives 0.0, never NaN.
        """
        if not 0 < self.total_time < math.inf or not self.iteration_numbers:
            return 0.0
        useful = max(self.iteration_numbers) - min(self.iteration_numbers) + 1
        return useful * samples_per_iteration / self.total_time


class SwiftTrainer:
    """Drives an engine to completion through checkpoints and failures.

    >>> from repro.api import (ClusterSpec, Experiment, ModelSpec,
    ...                        ParallelismSpec)
    >>> session = Experiment(
    ...     model=ModelSpec(family="mlp", dim=4, hidden_dim=8, seed=0),
    ...     cluster=ClusterSpec(num_machines=2, devices_per_machine=1),
    ...     parallelism=ParallelismSpec(kind="dp", num_workers=2),
    ... ).build()
    >>> trainer = session.trainer          # a wired SwiftTrainer
    >>> trace = trainer.train(2)
    >>> (len(trace.losses), trainer.strategy.value)
    (2, 'replication')
    """

    def __init__(
        self,
        engine,
        config: TrainerConfig,
        clock: SimClock | None = None,
        grouping: GroupingPlan | None = None,
        logging_mode: LoggingMode = LoggingMode.BUBBLE,
        snapshots: SnapshotManager | None = None,
        snapshot_interval: int | None = None,
        checkpoint_prefix: str = "ckpt",
        recorder: Recorder | None = None,
    ):
        self.engine = engine
        self.config = config
        self.clock = clock or engine.clock
        self.cluster = engine.cluster
        #: instrumentation sink; the default NULL_RECORDER records nothing
        #: and keeps every path bitwise-identical to an uninstrumented run
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        if self.recorder.enabled and getattr(self.recorder, "clock", None) is None:
            self.recorder.clock = self.clock
        engine.recorder = self.recorder
        #: distinct prefixes let several jobs share one global store
        #: without clobbering each other's checkpoints (repro.jobs)
        self.checkpoints = CheckpointManager(
            self.cluster, self.clock, key_prefix=checkpoint_prefix,
            incremental=config.incremental_checkpoints,
            full_every=config.incremental_full_every,
        )
        self.detector = FailureDetector(self.cluster.kvstore, self.clock)
        #: optional CheckFreq/Elastic-Horovod style snapshotting baseline
        self.snapshots = snapshots
        self.snapshot_interval = snapshot_interval

        #: the mechanism actually protecting this run (strategy vocabulary
        #: is unified on :class:`FTStrategy`; "auto" resolves here)
        self.strategy: FTStrategy = resolve_strategy(config.strategy, engine)
        policy = get_recovery_policy(self.strategy)
        bundle = policy.build(PolicyContext(
            engine=engine,
            config=config,
            clock=self.clock,
            cluster=self.cluster,
            checkpoints=self.checkpoints,
            detector=self.detector,
            grouping=grouping,
            logging_mode=logging_mode,
        ))
        self.recovery = bundle.recovery
        self.tlog = bundle.tlog
        self.pool = bundle.pool

        #: running trace; persists across step()/train() calls so a cluster
        #: scheduler can interleave this trainer with other jobs
        self.trace = TrainingTrace()
        self.max_recoveries = 16
        self._recoveries = 0

    # -- checkpoint plumbing --------------------------------------------------
    def take_checkpoint(self) -> float:
        """Synchronous global checkpoint of the whole job.

        With incremental checkpoints enabled, the optimizers' dirty-key
        reports select the leaves to persist; the reports are cleared only
        after the save succeeds.
        """
        rec = self.recorder
        dirty = None
        with rec.span("checkpoint/capture", iteration=self.engine.iteration):
            holders = self.engine.state_holders()
            if self.config.incremental_checkpoints:
                dirty = {
                    h.shard_id: h.dirty_full_state_keys() for h in holders
                }
            states = self.engine.checkpoint_states()
        with rec.span("checkpoint/persist",
                      iteration=self.engine.iteration) as sp:
            stall = self.checkpoints.save_global(
                states,
                self.engine.iteration,
                pipelined=self.engine.checkpoint_writes_overlap,
                dirty=dirty,
            )
            sp.set(stall_s=stall)
        if dirty is not None:
            for h in holders:
                h.clear_dirty()
        rec.count("trainer/checkpoints")
        return stall

    def take_snapshot(self) -> None:
        """CheckFreq/Elastic-Horovod snapshot of every shard (baseline)."""
        assert self.snapshots is not None
        for h in self.engine.state_holders():
            self.snapshots.take(
                h.shard_id, h.machine_id, h.full_state(),
                self.engine.iteration,
                gpu_free_bytes=h.device.free_bytes(),
            )

    # -- the loop -----------------------------------------------------------------
    def step(self, failures: FailureSchedule | None = None) -> IterationResult:
        """Attempt one iteration: due checkpoints first, recovery on failure.

        This is the cooperative unit a cluster scheduler interleaves: each
        call runs at most one iteration of this job and returns.  A failed
        result means the iteration was interrupted and recovered — the same
        iteration re-runs on the next call (exactly the semantics of the
        ``continue`` in the classic :meth:`train` loop).
        """
        failures = failures or FailureSchedule()
        it = self.engine.iteration
        if (
            self.config.checkpoint_at_start
            and self.checkpoints.latest_iteration is None
        ):
            stall = self.take_checkpoint()
            self.trace.checkpoints.append((it, stall))
        elif (
            it > 0
            and it % self.config.checkpoint_interval == 0
            and self.checkpoints.latest_iteration != it
        ):
            stall = self.take_checkpoint()
            self.trace.checkpoints.append((it, stall))
        if (
            self.snapshots is not None
            and self.snapshot_interval
            and it > 0
            and it % self.snapshot_interval == 0
        ):
            self.take_snapshot()

        rec = self.recorder
        failure = self._due_failure(failures, it)
        with rec.span("trainer/iteration") as sp:
            result: IterationResult = self.engine.run_iteration(failure=failure)
            if result.failed:
                sp.set(iteration=it, failed=True)
            else:
                sp.set(iteration=result.iteration, loss=result.loss)

        if result.failed:
            rec.count("trainer/failures")
            # multiple simultaneous failures: fail the co-scheduled
            # machines before recovery so it handles them jointly
            # (Appendix B)
            for phase in FailurePhase:
                for extra in failures.pop_due(it, phase):
                    self.cluster.fail_machine(extra.machine_id)
            self.recover_now()
            return result  # the interrupted iteration re-runs next step

        rec.count("trainer/iterations")
        if rec.enabled:
            rec.gauge("trainer/loss", result.loss)
            if self.tlog is not None:
                rec.gauge("tlog/bytes", self.tlog.total_bytes())
        self.trace.losses.append(result.loss)
        self.trace.iteration_times.append(result.sim_time)
        self.trace.iteration_numbers.append(result.iteration)
        self.trace.wall_times.append(self.clock.now)
        return result

    def recover_now(self) -> RecoveryReport:
        """Recover from a raised failure, inside or outside :meth:`step`.

        The cluster scheduler calls this directly to route a shared-cluster
        machine failure into this job's recovery path between iterations
        (the machine is already failed and the KV flag raised).
        """
        self._recoveries += 1
        if self._recoveries > self.max_recoveries:
            raise RecoveryError("too many recoveries; giving up")
        with self.recorder.span("trainer/recovery") as sp:
            report = self.recovery.recover()
            sp.set(strategy=report.strategy,
                   lost_iterations=report.lost_iterations)
        self.trace.recoveries.append(report)
        self.recorder.count("trainer/recoveries")
        # recovery advanced the sim clock through detect -> rollback ->
        # rejoin -> replay; decompose it into per-phase telemetry spans
        record_recovery_phases(
            self.recorder, report, sim_end=self.clock.now,
            resume_iteration=report.resume_iteration,
        )
        if self.config.checkpoint_after_recovery and self.tlog is not None:
            # close the failure window: the crashed machine's log records
            # are gone, so re-baseline before training resumes (after the
            # span above — the stall is a checkpoint, not recovery time)
            stall = self.take_checkpoint()
            self.trace.checkpoints.append((self.engine.iteration, stall))
        return report

    def train(
        self,
        num_iterations: int,
        failures: FailureSchedule | None = None,
        max_recoveries: int = 16,
    ) -> TrainingTrace:
        """Train to ``num_iterations``, recovering from scheduled failures.

        Returns a trace of *this call* only (the classic API); the
        lifetime trace across all step()/train() calls stays available as
        :attr:`trace`.
        """
        failures = failures or FailureSchedule()
        self.max_recoveries = max_recoveries
        self._recoveries = 0
        start = {
            f.name: len(getattr(self.trace, f.name))
            for f in fields(TrainingTrace)
        }
        while self.engine.iteration < num_iterations:
            self.step(failures)
        return TrainingTrace(**{
            name: getattr(self.trace, name)[first:]
            for name, first in start.items()
        })

    @staticmethod
    def _due_failure(
        failures: FailureSchedule, iteration: int
    ) -> FailureEvent | None:
        for phase in FailurePhase:
            due = failures.pop_due(iteration, phase)
            if due:
                return due[0]
        return None
