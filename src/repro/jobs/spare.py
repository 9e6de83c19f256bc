"""Spare-machine pool: the one lease/repair/reclaim state machine.

The paper assumes "a replacement machine will be added to the training
job" after a crash (Section 3).  On a shared cluster replacements come
from a finite pool of hot spares, held here as two plain lists.  The
serve fold (:class:`~repro.serve.ServeState`) runs it, for the control
plane and for the fleet simulator, which makes its live cluster follow
the fold.

* A *lease* slides a named spare's hardware into the failed machine's id
  (job slots stay stable); the broken hardware repairs under the spare's
  id for ``repair_ticks`` rounds.  An empty pool blocks recovery.
* A control plane configured with no spares has *no pool*
  (:attr:`SparePool.by_fiat`): a crash that hits a job replaces its
  machine at once, the paper's assumption that "a replacement machine
  will be added" (Section 3).  That is not an empty pool, whose
  recoveries wait for a repair.
* A crash on a pool spare sends it to repair; a crash on a spare in
  repair restarts its timer.
* Every countdown decrements when a round ends (:meth:`end_round`); a
  :meth:`due` repair is reclaimed at the start of the next round.

:func:`spare_ids` and :func:`check_repair_ticks` validate a control
plane's geometry where its configuration comes in.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

__all__ = ["SparePool", "spare_ids", "check_repair_ticks"]


def spare_ids(num_machines: int, num_spares: int) -> list[int]:
    """The hot spares of a ``num_machines`` cluster: its highest ids.

    >>> spare_ids(6, 2)
    [4, 5]
    >>> spare_ids(4, 4)
    Traceback (most recent call last):
    ...
    repro.errors.ConfigurationError: num_spares must be in 0..3, got 4
    """
    if not 0 <= num_spares < num_machines:
        raise ConfigurationError(
            f"num_spares must be in 0..{num_machines - 1}, got {num_spares}")
    return list(range(num_machines - num_spares, num_machines))


def check_repair_ticks(repair_ticks: int) -> None:
    if repair_ticks < 1:
        raise ConfigurationError(
            f"repair_ticks must be >= 1, got {repair_ticks}")


class SparePool:
    """The hot spares and the machines in repair (see module docstring).

    >>> pool = SparePool([3], repair_ticks=2)
    >>> pool.lease(3)                   # 3's hardware replaces a dead machine
    >>> pool.spares, pool.repairing
    ([], [[3, 2]])
    >>> pool.end_round(); pool.due()
    []
    >>> pool.end_round(); pool.due()
    [3]
    >>> pool.reclaim(3); pool.spares
    [3]
    """

    def __init__(self, spares: list[int] | None, repair_ticks: int = 5,
                 repairing: list[list[int]] = ()):
        # unchecked: each control plane validates its geometry where its
        # configuration comes in, and a fold trusts what it folds
        #: no pool (``spares`` is ``None``): job machines are replaced by
        #: fiat and no lease is ever taken
        self.by_fiat = spares is None
        self.spares = [int(m) for m in spares or ()]
        #: broken hardware being repaired: ``[machine, ticks_left]``
        self.repairing = [[int(m), int(t)] for m, t in repairing]
        self.repair_ticks = repair_ticks

    @classmethod
    def configured(cls, spares: list[int],
                   repair_ticks: int) -> "SparePool":
        """The pool a control plane starts with; no spares is no pool.

        >>> SparePool.configured([], 5).by_fiat
        True
        """
        return cls(spares or None, repair_ticks)

    def is_spare(self, machine: int) -> bool:
        """In the pool or in repair."""
        return machine in self.spares or any(
            m == machine for m, _ in self.repairing)

    def next_spare(self) -> int | None:
        """The spare the next lease takes (the oldest), ``None`` if empty."""
        return self.spares[0] if self.spares else None

    def due(self) -> list[int]:
        """Machines whose repair is done, in the order they went in."""
        return [m for m, ticks in self.repairing if ticks <= 0]

    def lease(self, spare: int) -> None:
        self.spares.remove(spare)
        self.repairing.append([spare, self.repair_ticks])

    def crash(self, machine: int) -> None:
        """No-op for a machine outside the pool."""
        if machine in self.spares:
            self.lease(machine)  # it repairs under its own id
            return
        for entry in self.repairing:
            if entry[0] == machine:
                entry[1] = self.repair_ticks

    def end_round(self) -> None:
        for entry in self.repairing:
            entry[1] -= 1

    def reclaim(self, machine: int) -> None:
        """Repaired hardware returns to the pool as the newest spare."""
        self.repairing = [e for e in self.repairing if e[0] != machine]
        self.spares.append(machine)

    def retire(self, machine: int) -> None:
        if machine in self.spares:
            self.spares.remove(machine)
