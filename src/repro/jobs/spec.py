"""Job abstraction: a fault-tolerant training run as a schedulable unit.

The seed reproduction drives exactly one :class:`~repro.core.SwiftTrainer`
on a dedicated cluster.  A *job* wraps that trainer (engine + recovery +
trace) behind a small lifecycle interface so a cluster-level scheduler can
run many of them on one shared :class:`~repro.cluster.Cluster`:

* :class:`JobSpec` — the submission-time description (gang size, priority,
  elasticity, model/workload knobs);
* :class:`Job` — the runtime object: when the scheduler places it, its
  spec plus the granted ``(machine, device)`` slots become an
  :class:`~repro.api.Experiment` that is planned and built like any other
  (:meth:`~repro.api.Experiment.from_job_spec`), then stepped one
  iteration at a time (cooperative interleaving), shrunk/grown through
  :class:`~repro.core.ElasticCoordinator` under preemption, and routed
  shared-cluster machine failures via its own Swift recovery path.

Every mechanism of the paper keeps working per job: the Section 3 chain
picks replication, logging or checkpoint-only recovery for the placement
the job actually got, and abrupt elastic departures resolve by
update-undo (Section 8) — the scheduler only decides *when* each job runs
and *which* hardware it holds.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum

from repro.cluster.clock import SimClock
from repro.cluster.topology import Cluster
from repro.core.elastic import ElasticCoordinator
from repro.core.replication import RecoveryReport
from repro.core.strategy import MECHANISMS_BY_KIND, FTStrategy
from repro.core.trainer import SwiftTrainer
from repro.errors import ConfigurationError
from repro.parallel.results import IterationResult

__all__ = ["JobState", "JobSpec", "Job"]


class JobState(str, Enum):
    """Lifecycle of a job on the shared cluster."""

    #: submitted, waiting in the queue for a gang of free slots
    PENDING = "pending"
    #: placed and training
    RUNNING = "running"
    #: hit a machine failure while the spare pool was empty; waits for a
    #: repaired machine before its recovery can run
    BLOCKED = "blocked"
    COMPLETED = "completed"
    #: recovery was impossible (e.g. no surviving replica)
    FAILED = "failed"


@dataclass(frozen=True)
class JobSpec:
    """Submission-time description of one training job."""

    name: str
    #: "dp" (data parallel) or "pp" (pipeline parallel); the recovery
    #: strategy follows the Section 3 chain on the granted placement
    parallelism: str
    #: gang size: DP workers or PP stages — all placed at once
    num_workers: int
    #: training length in iterations
    iterations: int
    #: larger = more important; may preempt lower-priority elastic jobs
    priority: int = 0
    #: DP only: may be shrunk by preemption and re-grown later
    elastic: bool = False
    #: elastic floor: preemption never shrinks below this many workers
    min_workers: int = 1
    #: fleet round at which the job arrives (used by the FleetSimulator)
    arrival: int = 0
    batch_size: int = 16
    checkpoint_interval: int = 20
    #: fault-tolerance strategy — "auto" (the Section 3 chain, run when
    #: the job is placed) or any :class:`~repro.core.FTStrategy` value,
    #: checked here against ``parallelism`` so a mismatch fails at
    #: submission time
    strategy: str = "auto"
    #: delta checkpoints (persist only dirty leaves) — see
    #: repro.core.checkpoint
    incremental_checkpoints: bool = False
    # -- workload knobs (small deterministic MLP classification) ----------
    dim: int = 8
    hidden_dim: int = 16
    num_classes: int = 4
    depth: int = 2
    num_microbatches: int = 4
    seed: int = 7
    #: dataset seed; ``None`` reuses ``seed`` (the historic behavior)
    task_seed: int | None = None
    #: optimizer family — ``None`` keeps the historic per-parallelism
    #: defaults (SGD-momentum for DP, Adam for PP)
    optimizer: str | None = None
    lr: float | None = None
    momentum: float = 0.9
    #: owning tenant on a multi-tenant control plane (:mod:`repro.serve`);
    #: ``None`` for single-tenant fleet runs
    tenant: str | None = None

    def __post_init__(self) -> None:
        if self.parallelism not in ("dp", "pp"):
            raise ConfigurationError(
                f"parallelism must be 'dp' or 'pp', got {self.parallelism!r}"
            )
        if self.num_workers < 1:
            raise ConfigurationError("num_workers must be >= 1")
        if self.iterations < 1:
            raise ConfigurationError("iterations must be >= 1")
        if self.elastic and self.parallelism != "dp":
            raise ConfigurationError("only DP jobs can be elastic")
        if not 1 <= self.min_workers <= self.num_workers:
            raise ConfigurationError(
                "min_workers must be in [1, num_workers]"
            )
        if self.strategy not in ("auto",) + tuple(s.value for s in FTStrategy):
            raise ConfigurationError(
                f"unknown strategy {self.strategy!r}; expected 'auto' or "
                f"one of {[s.value for s in FTStrategy]}"
            )
        if self.strategy != "auto" \
                and self.strategy not in MECHANISMS_BY_KIND[self.parallelism]:
            raise ConfigurationError(
                f"strategy {self.strategy!r} cannot protect a "
                f"{self.parallelism!r} job"
            )
        # what Experiment.validate would refuse on any placement fails
        # here, at submission, not when the scheduler places the job
        if self.batch_size < 1 or self.num_microbatches < 1:
            raise ConfigurationError(
                "batch_size and num_microbatches must be >= 1"
            )
        if self.parallelism == "pp" \
                and self.batch_size < self.num_microbatches:
            raise ConfigurationError(
                f"batch_size ({self.batch_size}) must cover "
                f"num_microbatches ({self.num_microbatches})"
            )

    @property
    def samples(self) -> int:
        """Total useful samples the job produces when it completes."""
        return self.iterations * self.batch_size

    def to_payload(self) -> dict:
        """Plain-JSON form of the spec (WAL events, wire protocol).

        >>> spec = JobSpec(name="j", parallelism="dp", num_workers=2,
        ...                iterations=10)
        >>> JobSpec.from_payload(spec.to_payload()) == spec
        True
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_payload(cls, payload: dict) -> "JobSpec":
        """Rebuild a spec from :meth:`to_payload` output.

        Unknown keys are ignored so older servers can read specs written
        by newer clients (the WAL analogue of trace version tolerance).

        >>> JobSpec.from_payload({"name": "j", "parallelism": "pp",
        ...                       "num_workers": 2, "iterations": 5,
        ...                       "future_knob": 1}).num_workers
        2
        """
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})


class Job:
    """A scheduled training run: spec + (once placed) a live session."""

    def __init__(self, spec: JobSpec):
        self.spec = spec
        self.state = JobState.PENDING
        self.cluster: Cluster | None = None
        #: the built :class:`repro.api.Session` (``None`` until placed)
        self.session = None
        self.coordinator: ElasticCoordinator | None = None
        #: why the job ended ``FAILED`` without ever running (its plan
        #: has no engine for the slots the scheduler could grant)
        self.error: str | None = None
        # -- fleet bookkeeping (fleet-time seconds / counters) ------------
        self.submit_time: float = 0.0
        self.start_time: float | None = None
        self.finish_time: float | None = None
        self.preemptions = 0
        self.machine_failures = 0
        #: machines whose loss the next :meth:`recover` must repair
        self.pending_machines: list[int] = []

    # -- identity ---------------------------------------------------------
    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def owner_tag(self) -> str:
        """Tag under which this job's slots are reserved in the ledger."""
        return f"job:{self.spec.name}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Job({self.spec.name}, {self.state.value})"

    # -- placement ---------------------------------------------------------
    def start(
        self,
        cluster: Cluster,
        slots: list[tuple[int, int]],
        now: float = 0.0,
    ) -> None:
        """Plan and build the gang onto the granted slots (one per worker)."""
        # repro.api imports this module for JobSpec
        from repro.api.experiment import Experiment

        self.cluster = cluster
        self.session = Experiment.from_job_spec(
            self.spec, slots, cluster
        ).build(cluster=cluster)
        if self.spec.elastic:
            self.coordinator = ElasticCoordinator(self.engine, clock=self.clock)
        self.state = JobState.RUNNING
        self.start_time = now

    # -- runtime queries ---------------------------------------------------
    @property
    def trainer(self) -> SwiftTrainer | None:
        return self.session.trainer if self.session else None

    @property
    def clock(self) -> SimClock | None:
        """The job's own sim clock (``None`` until placed)."""
        return self.session.clock if self.session else None

    @property
    def engine(self):
        assert self.trainer is not None, f"{self.name} not started"
        return self.trainer.engine

    @property
    def iteration(self) -> int:
        return self.engine.iteration if self.trainer else 0

    @property
    def done(self) -> bool:
        return (
            self.trainer is not None
            and self.engine.iteration >= self.spec.iterations
        )

    @property
    def samples_done(self) -> int:
        return self.iteration * self.spec.batch_size

    @property
    def num_workers_now(self) -> int:
        """Current gang size (elastic jobs may run shrunk)."""
        return len(self.current_slots())

    def current_slots(self) -> list[tuple[int, int]]:
        """The ``(machine_id, device_idx)`` slots the job occupies now."""
        if self.trainer is None:
            return []
        if self.spec.parallelism == "pp":  # PP placement is immutable
            return list(self.session.plan.placement)
        return [
            (w.machine_id, w.device.local_index)
            for w in self.engine.workers
        ]

    def machines_used(self) -> set[int]:
        return {m for m, _ in self.current_slots()}

    @property
    def recoveries(self) -> list[RecoveryReport]:
        return self.trainer.trace.recoveries if self.trainer else []

    @property
    def recovery_time(self) -> float:
        """Simulated seconds this job spent inside recovery paths."""
        return self.trainer.trace.recovery_time_total if self.trainer else 0.0

    @property
    def lost_iterations(self) -> int:
        """Iterations of work recovery had to recompute (0 for replication)."""
        return sum(rep.lost_iterations for rep in self.recoveries)

    @property
    def queueing_delay(self) -> float:
        """Fleet seconds spent waiting between submission and placement."""
        if self.start_time is None:
            return 0.0
        return self.start_time - self.submit_time

    # -- stepping ----------------------------------------------------------
    def step(self) -> IterationResult:
        """Run (at most) one iteration of this job."""
        assert self.trainer is not None, f"{self.name} not started"
        assert self.state == JobState.RUNNING, (
            f"cannot step {self.name} in state {self.state}"
        )
        return self.trainer.step()

    # -- failure routing ---------------------------------------------------
    def apply_failure(self, machine_id: int) -> None:
        """A shared-cluster machine this job occupies crashed.

        Fails the machine and raises the job's failure flag; the actual
        recovery runs via :meth:`recover` once the control plane has a
        replacement for every machine the job lost (possibly after
        blocking on an empty spare pool).
        """
        assert self.cluster is not None
        self.cluster.fail_machine(machine_id)
        self.cluster.kvstore.raise_failure(machine_id, self.iteration)
        self.machine_failures += 1
        if machine_id not in self.pending_machines:
            self.pending_machines.append(machine_id)

    def recover(self) -> RecoveryReport:
        """Run this job's Swift recovery for its pending machine failure."""
        assert self.trainer is not None and self.cluster is not None
        # a co-located job's recovery may have consumed the shared flag
        # (its detector clears it); re-raise for our own detector
        if not self.cluster.kvstore.failure_raised() and self.pending_machines:
            self.cluster.kvstore.raise_failure(
                self.pending_machines[-1], self.iteration
            )
        # logging recoveries re-baseline the tensor log afterwards
        # (TrainerConfig.checkpoint_after_recovery, set for every job)
        report = self.trainer.recover_now()
        self.pending_machines.clear()
        self.state = JobState.RUNNING
        return report

    # -- elastic resizing (preemption / restoration) -----------------------
    def shrink(self, num: int) -> list[tuple[int, int]]:
        """Preempt ``num`` workers (abrupt scale-in); returns freed slots.

        Abrupt because preemption may land mid-update; update-undo makes
        it crash-consistent (paper Section 8), so no checkpoint restart.
        """
        assert self.coordinator is not None, f"{self.name} is not elastic"
        workers = self.engine.workers
        if len(workers) - num < self.spec.min_workers:
            raise ConfigurationError(
                f"{self.name}: shrinking {num} would go below "
                f"min_workers={self.spec.min_workers}"
            )
        victims = workers[-num:]
        freed = [(w.machine_id, w.device.local_index) for w in victims]
        self.coordinator.scale_in([w.rank for w in victims], abrupt=True)
        self.preemptions += 1
        return freed

    def grow(self, slots: list[tuple[int, int]]) -> None:
        """Restore preempted workers onto freshly granted slots."""
        assert self.coordinator is not None, f"{self.name} is not elastic"
        self.coordinator.scale_out(list(slots))
