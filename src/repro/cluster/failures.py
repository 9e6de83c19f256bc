"""Failure injection: deterministic kill schedules.

Two modes cover the paper's experiments and beyond:

* **Deterministic** — "kill a machine (rank 1) at the beginning of
  iteration 150" (Section 7): a :class:`FailureSchedule` of exact
  ``(iteration, phase, machine)`` triggers, including *mid-update* points
  that expose the crash-consistency problem.
* **Scenario-driven** — :mod:`repro.chaos` samples stochastic failure
  workloads into replayable traces and lowers them onto the same
  :class:`FailureSchedule` the engines already consume.  The simulation
  study's model (Section 7.3: failures "uniformly randomly during
  training, assuming a 17-hour median-time-between-failure") is the
  ``steady_mtbf`` scenario, drawn by :class:`repro.chaos.PoissonMTBF`;
  the others add correlated rack bursts, flaky nodes and cascades.

Engines and trainers depend only on the :class:`FailureSource` protocol
— anything with ``pop_due``/``pending`` — of which
:class:`FailureSchedule` is the canonical implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Protocol, runtime_checkable

__all__ = [
    "FailurePhase",
    "FailureEvent",
    "FailureSource",
    "FailureSchedule",
]


class FailurePhase(str, Enum):
    """Where in an iteration the crash lands (granularity of Section 2.3)."""

    ITERATION_START = "iteration_start"
    FORWARD = "forward"
    BACKWARD = "backward"
    #: between two layer-wise parameter updates — the crash-consistency window
    MID_UPDATE = "mid_update"
    ITERATION_END = "iteration_end"
    #: at the boundary *before* a named pipeline instruction (mid-bubble,
    #: mid-p2p, pre-step — any point the schedule program can name)
    INSTRUCTION = "instruction"


@dataclass(frozen=True)
class FailureEvent:
    """One machine crash at a precise logical point."""

    machine_id: int
    iteration: int
    phase: FailurePhase = FailurePhase.ITERATION_START
    #: for MID_UPDATE: how many parameters were already updated when the
    #: crash hit (the "some layers updated, others not" state of Figure 4).
    #: For INSTRUCTION: how many matching instruction boundaries on the
    #: failed machine are skipped before the crash fires.
    after_updates: int = 0
    #: for INSTRUCTION: the pipeline instruction op name (e.g. "SendGrad",
    #: "OptimizerStep") at whose boundary the crash lands
    instruction: str | None = None


@runtime_checkable
class FailureSource(Protocol):
    """What the trainer/engines need from a failure injector.

    A source is *consumed*: ``pop_due(iteration, phase)`` removes and
    returns the events firing at that logical point, and ``pending()``
    lists what is still to come.  :class:`FailureSchedule` is the
    canonical static implementation; :mod:`repro.chaos` produces
    schedules from sampled scenario traces
    (:meth:`repro.chaos.FailureTrace.to_schedule`).

    >>> isinstance(FailureSchedule(), FailureSource)
    True
    """

    def pop_due(self, iteration: int, phase: "FailurePhase") -> list["FailureEvent"]:
        """Remove and return all events due at (iteration, phase)."""
        ...

    def pending(self) -> list["FailureEvent"]:
        """Events not yet consumed, in firing order."""
        ...


class FailureSchedule:
    """A deterministic list of failure events consumed by engines."""

    def __init__(self, events: list[FailureEvent] | None = None):
        self._events: list[FailureEvent] = sorted(
            events or [], key=lambda e: (e.iteration, e.machine_id)
        )

    def add(self, event: FailureEvent) -> "FailureSchedule":
        self._events.append(event)
        self._events.sort(key=lambda e: (e.iteration, e.machine_id))
        return self

    def pending(self) -> list[FailureEvent]:
        return list(self._events)

    def pop_due(self, iteration: int, phase: FailurePhase) -> list[FailureEvent]:
        """Remove and return all events due at (iteration, phase)."""
        due = [
            e for e in self._events if e.iteration == iteration and e.phase == phase
        ]
        for e in due:
            self._events.remove(e)
        return due

    def __len__(self) -> int:
        return len(self._events)

