"""Spare-machine pool: replacement capacity for failure recovery.

The paper assumes "a replacement machine will be added to the training
job" after a crash (Section 3) — on a dedicated cluster that replacement
appears by fiat.  On a *shared* cluster, replacements come from a finite
pool of hot spares the operator keeps idle:

* the pool reserves whole machines in the cluster's slot ledger so the
  scheduler never places job gangs on them;
* when a machine hosting jobs fails, the scheduler *leases* one spare —
  conceptually the spare's hardware slides into the failed slot (the
  simulation keeps machine ids stable, matching
  :meth:`Cluster.replace_machine`), and the broken hardware goes to
  repair;
* after ``repair_ticks`` scheduler rounds the repaired hardware returns
  to the pool as the new spare (reclaim), restoring capacity;
* an empty pool blocks recovery: affected jobs sit in ``BLOCKED`` state
  until a repair completes.
"""

from __future__ import annotations

from repro.cluster.topology import Cluster
from repro.errors import ConfigurationError

__all__ = ["SparePool"]

SPARE_OWNER = "spare-pool"


class SparePool:
    """Manages the hot-spare machines of a shared cluster."""

    def __init__(
        self,
        cluster: Cluster,
        machine_ids: list[int],
        repair_ticks: int = 5,
    ):
        if repair_ticks < 1:
            raise ConfigurationError("repair_ticks must be >= 1")
        seen = set()
        for m in machine_ids:
            if m in seen:
                raise ConfigurationError(f"duplicate spare machine {m}")
            seen.add(m)
        self.cluster = cluster
        self.repair_ticks = repair_ticks
        self._available: list[int] = list(machine_ids)
        #: broken hardware being repaired: [machine_id, ticks_remaining]
        self._repairing: list[list[int]] = []
        self.total_leases = 0
        # keep the scheduler off the spares
        for m in machine_ids:
            slots = [(m, d) for d in range(len(cluster.machine(m).devices))]
            cluster.reserve_slots(slots, SPARE_OWNER)

    # -- queries ------------------------------------------------------------
    @property
    def available(self) -> int:
        return len(self._available)

    @property
    def repairing(self) -> int:
        return len(self._repairing)

    def is_spare(self, machine_id: int) -> bool:
        return machine_id in self._available or any(
            machine_id == entry[0] for entry in self._repairing
        )

    # -- lease / reclaim ----------------------------------------------------
    def lease(self, failed_machine_id: int) -> int | None:
        """Hand a spare to a recovery; ``None`` if the pool is empty.

        The spare's hardware takes over the failed slot (ids stay stable);
        the failed slot's broken hardware enters repair and will come back
        as the new spare under the leased id.
        """
        if not self._available:
            return None
        spare = self._available.pop(0)
        self._repairing.append([spare, self.repair_ticks])
        self.total_leases += 1
        return spare

    def fail_spare(self, machine_id: int) -> None:
        """A failure hit an idle spare itself: repair it, no job affected.

        A spare already in repair can fail "again" (the slot's hardware is
        flaky); the repair timer simply restarts.
        """
        if machine_id in self._available:
            self._available.remove(machine_id)
            self.cluster.fail_machine(machine_id)
            self._repairing.append([machine_id, self.repair_ticks])
            return
        for entry in self._repairing:
            if entry[0] == machine_id:
                entry[1] = self.repair_ticks
                return
        raise ConfigurationError(f"machine {machine_id} is not a spare")

    def tick(self) -> list[int]:
        """Advance repairs one round; returns machine ids reclaimed."""
        for entry in self._repairing:
            entry[1] -= 1
        return self._collect_done()

    def reclaim_now(self, machine_id: int) -> None:
        """Finish a repair immediately (test/operator hook)."""
        for entry in self._repairing:
            if entry[0] == machine_id:
                entry[1] = 0
                self._collect_done()
                return
        raise ConfigurationError(f"machine {machine_id} is not in repair")

    def _collect_done(self) -> list[int]:
        reclaimed: list[int] = []
        for entry in [e for e in self._repairing if e[1] <= 0]:
            self._repairing.remove(entry)
            machine_id = entry[0]
            if not self.cluster.machine(machine_id).alive:
                self.cluster.replace_machine(machine_id)
            self._available.append(machine_id)
            reclaimed.append(machine_id)
        return reclaimed
