"""Gang placement: the one policy the fleet and the control plane decide with.

Pure functions over plain values.  The control plane's decide phases
(:func:`repro.serve.server.decide`, which the fleet simulator runs too)
pass in keys read from the fold and log the answer as events:

* :func:`spread` — slots round-robin over the machines with the fewest
  failures, so a gang spans many healthy failure domains;
* :func:`preemption` — lower-priority elastic jobs give workers to a head
  that does not fit: lowest priority, then earliest arrival, first, and
  only as many as it needs;
* :func:`restoration_order` — shrunk jobs re-grow highest priority first
  (callers restore only while nothing is queued);
* :func:`head_of_line` — the queued job to place next.  If it does not
  fit, the line blocks: no backfilling, so a large gang is never starved;
  :func:`line_key` is its order within one tenant.

Every sort is stable: equal keys keep the caller's order.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import TypeVar

__all__ = [
    "spread", "preemption", "restoration_order", "line_key", "head_of_line",
]

T = TypeVar("T")
Slot = tuple[int, int]


def spread(
    free: Iterable[Slot], failures: Mapping[int, int], n: int
) -> list[Slot] | None:
    """``n`` of the ``(machine, device)`` slots in ``free``, spread out.

    Machines are visited in ``(failures[machine], machine)`` order, one
    slot each per pass, each machine's slots in the order ``free`` lists
    them.  ``None`` when fewer than ``n`` slots are free.

    >>> free = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]
    >>> spread(free, {0: 0, 1: 2, 2: 0}, 4)
    [(0, 0), (2, 0), (1, 0), (0, 1)]
    >>> spread(free, {0: 0, 1: 0, 2: 0}, 6) is None
    True
    """
    by_machine: dict[int, list[Slot]] = {}
    for slot in free:
        by_machine.setdefault(slot[0], []).append(slot)
    if sum(len(slots) for slots in by_machine.values()) < n:
        return None
    order = sorted(by_machine, key=lambda m: (failures[m], m))
    picked: list[Slot] = []
    while len(picked) < n:
        for m in order:
            if by_machine[m] and len(picked) < n:
                picked.append(by_machine[m].pop(0))
    return picked


def preemption(
    want: int, free: int, candidates: Iterable[tuple[T, int, float, int]]
) -> list[tuple[T, int]] | None:
    """``(job, take)`` to shrink, in order, so a gang of ``want`` fits.

    ``free`` slots are free now; ``candidates`` are ``(job, priority,
    arrival, give)`` rows, ``give`` being how many workers a job could
    lose.  ``None`` when even every ``give`` leaves the gang short.

    >>> rows = [("a", 0, 2.0, 2), ("b", 0, 1.0, 2), ("c", 1, 0.0, 4)]
    >>> preemption(4, 1, rows)
    [('b', 2), ('a', 1)]
    >>> preemption(4, 1, rows[:1]) is None
    True
    """
    ranked = sorted((row for row in candidates if row[3] > 0),
                    key=lambda row: (row[1], row[2]))
    need = want - free
    if need > sum(row[3] for row in ranked):
        return None
    takes: list[tuple[T, int]] = []
    for job, _, _, give in ranked:
        if need <= 0:
            break
        take = min(need, give)
        takes.append((job, take))
        need -= take
    return takes


def restoration_order(candidates: Iterable[tuple[T, int, float]]) -> list[T]:
    """Shrunk jobs to re-grow, from ``(job, priority, arrival)`` rows.

    >>> restoration_order([("a", 0, 0.0), ("b", 1, 5.0), ("c", 0, 0.0)])
    ['b', 'a', 'c']
    """
    ranked = sorted(candidates, key=lambda row: (-row[1], row[2]))
    return [row[0] for row in ranked]


def line_key(priority: int, submitted: float) -> tuple[int, float]:
    """A queued job's place in its tenant's line: higher priority first,
    then earlier submission.

    >>> sorted([line_key(0, 1), line_key(9, 3), line_key(9, 2)])
    [(-9, 2), (-9, 3), (0, 1)]
    """
    return (-priority, submitted)


def head_of_line(rows: Iterable[tuple[T, float, int, float]]) -> T:
    """The queued job to place next, from ``(job, usage, priority,
    submitted)`` rows; ``usage`` is the job's tenant's usage per share.

    Rows rank by ``(usage, *line_key(priority, submitted))``.  All of a
    tenant's rows share its usage, so only its first job by
    :func:`line_key` can win.  The control plane relies on that: it
    passes one row per tenant, the head of that tenant's line in
    :class:`~repro.serve.ServeState`'s index, and gets the job a scan of
    the whole queue would.

    >>> head_of_line([("late", 0, 9, 2), ("early", 0, 9, 1),
    ...               ("low", 0, 0, 0), ("heavy", 1.5, 9, 0)])
    'early'
    """
    return min(rows, key=lambda row: (row[1], *line_key(row[2], row[3])))[0]
