"""Elastic data-parallel training powered by update-undo (paper Section 8).

"Most elastic training works still rely on checkpoint-restart to avoid
the crash-consistency problem. Swift can resolve the inconsistency using
update-undo and thus benefit elastic training (e.g., broadcast the
worker's state when new workers come in)."

:class:`ElasticCoordinator` wraps a :class:`DataParallelEngine` and adds:

* **scale-out** — new workers join on spare devices; a surviving replica
  broadcasts its state (no checkpoint restart);
* **scale-in** — workers leave (e.g., preempted by a high-priority job);
  if the departure interrupts an update, the remaining workers undo to
  the consistent iteration-start state first;
* a resize *schedule* so tests/benchmarks can script membership changes.

Throughout, the replica-consistency invariant of data parallelism is
preserved — checked by :meth:`DataParallelEngine.replicas_consistent`
after every scheduled resize (a ``RecoveryError`` otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.clock import SimClock
from repro.comm.collectives import CollectiveGroup
from repro.core.replication import UNDO_KERNEL_TIME
from repro.core.undo import resolve_dp_consistency
from repro.errors import ConfigurationError, RecoveryError
from repro.parallel.data_parallel import DataParallelEngine
from repro.utils.serialization import state_nbytes

__all__ = ["ResizeEvent", "ElasticCoordinator"]


@dataclass(frozen=True)
class ResizeEvent:
    """A scheduled membership change at the start of an iteration."""

    iteration: int
    #: positive — add workers at these (machine, device) slots
    join: tuple[tuple[int, int], ...] = ()
    #: ranks leaving the job
    leave: tuple[int, ...] = ()
    #: whether the departure is abrupt (mid-update) and needs undo
    abrupt: bool = False
    #: for abrupt departures: how many parameters were updated already
    after_updates: int = 0


@dataclass
class ElasticTrace:
    losses: list[float] = field(default_factory=list)
    memberships: list[int] = field(default_factory=list)
    resize_times: list[float] = field(default_factory=list)


class ElasticCoordinator:
    """Drives elastic membership changes over a data-parallel engine."""

    def __init__(self, engine: DataParallelEngine, clock: SimClock | None = None):
        self.engine = engine
        self.clock = clock or engine.clock

    # -- membership changes -------------------------------------------------
    def scale_out(self, slots: list[tuple[int, int]]) -> float:
        """Add one worker per (machine, device) slot; returns resize time.

        The new workers receive the model state by broadcast from an
        existing replica — no checkpoint involved.
        """
        live = self.engine.alive_workers()
        if not live:
            raise RecoveryError("cannot scale out with no live replica")
        state = live[0].full_state()
        for machine_id, dev_idx in slots:
            device = self.engine.cluster.device(machine_id, dev_idx)
            if not device.alive:
                raise ConfigurationError(
                    f"device ({machine_id}, {dev_idx}) is on a failed machine"
                )
            self.engine.restore_shard(len(self.engine.workers), state, device)
        self._rebuild_group()
        nbytes = state_nbytes(state)
        t = CollectiveGroup(
            self.engine.cluster,
            {w.rank: w.device for w in self.engine.workers if w.alive},
        ).broadcast_time(nbytes)
        self.clock.advance(t, "elastic_scale_out", joined=len(slots))
        return t

    def scale_in(self, ranks: list[int], abrupt: bool = False) -> float:
        """Remove workers; abrupt departures trigger update-undo first."""
        remaining = [
            w for w in self.engine.workers
            if w.alive and w.rank not in set(ranks)
        ]
        if not remaining:
            raise ConfigurationError("cannot remove every worker")
        undo_time = 0.0
        # departures mid-update leave survivors inconsistent: undo
        if abrupt and resolve_dp_consistency(self.engine).num_undone:
            undo_time = UNDO_KERNEL_TIME
        self.engine.workers = remaining
        # re-rank contiguously so sharding stays balanced
        for new_rank, w in enumerate(self.engine.workers):
            w.rank = new_rank
        self._rebuild_group()
        self.clock.advance(undo_time + 0.05, "elastic_scale_in",
                           left=len(ranks))
        return undo_time + 0.05

    def _rebuild_group(self) -> None:
        self.engine.group = CollectiveGroup(
            self.engine.cluster,
            {w.rank: w.device for w in self.engine.workers if w.alive},
        )

    # -- scripted elastic training -----------------------------------------------
    def train(self, num_iterations: int,
              schedule: list[ResizeEvent] | None = None) -> ElasticTrace:
        """Run training while applying membership changes on schedule."""
        events = sorted(schedule or [], key=lambda e: e.iteration)
        trace = ElasticTrace()
        while self.engine.iteration < num_iterations:
            it = self.engine.iteration
            due = [e for e in events if e.iteration == it]
            for event in due:
                events.remove(event)
                t = 0.0
                if event.leave:
                    t += self.scale_in(list(event.leave), abrupt=event.abrupt)
                if event.join:
                    t += self.scale_out(list(event.join))
                trace.resize_times.append(t)
                if not self.engine.replicas_consistent():
                    raise RecoveryError(
                        f"elastic resize at iteration {it} broke replica "
                        f"consistency: {event}"
                    )
            result = self.engine.run_iteration()
            trace.losses.append(result.loss)
            trace.memberships.append(len(self.engine.alive_workers()))
        return trace
