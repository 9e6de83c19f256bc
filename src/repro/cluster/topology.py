"""Cluster topology and bandwidth model.

Defaults follow the paper's testbed (Section 7): DGX-2 class machines with
eight 32 GB V100s on NVLink, 40 Gbps Ethernet between machines, NVMe local
disks, and an HDFS-like global store built on the same machines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.device import Device, GiB
from repro.cluster.kvstore import KVStore
from repro.cluster.machine import Machine
from repro.cluster.storage import GlobalStore

__all__ = ["BandwidthModel", "Cluster"]

GB = 1e9


@dataclass(frozen=True)
class BandwidthModel:
    """Link bandwidths in bytes/second (paper testbed defaults)."""

    #: inter-machine Ethernet (40 Gbps = 5 GB/s)
    network: float = 5.0 * GB
    #: intra-machine GPU-GPU (NVLink)
    nvlink: float = 150.0 * GB
    #: GPU <-> CPU copy path (PCIe 3.0 x16 effective)
    pcie: float = 12.0 * GB
    #: fixed per-message latency, seconds
    latency: float = 20e-6


class Cluster:
    """A set of machines plus the shared services (KV store, global store).

    The cluster is the root object of every scenario: engines place workers
    on its devices, the failure injector kills its machines, and the cost
    model prices transfers with its :class:`BandwidthModel`.
    """

    def __init__(
        self,
        num_machines: int,
        devices_per_machine: int = 8,
        device_memory: int = 32 * GiB,
        bandwidth: BandwidthModel | None = None,
    ):
        if num_machines < 1:
            raise ValueError("cluster needs at least one machine")
        self.bandwidth = bandwidth or BandwidthModel()
        self.machines = [
            Machine(m, devices_per_machine, device_memory)
            for m in range(num_machines)
        ]
        self.kvstore = KVStore()
        self.global_store = GlobalStore(network_bw=self.bandwidth.network)
        #: monotonically increasing ids for replacement machines
        self._replacements: list[int] = []
        #: slot accounting: (machine_id, device_idx) -> owner tag.  Engines
        #: themselves do not consult the ledger (a single-job run owns the
        #: whole cluster); the fleet simulator uses it to share one
        #: cluster between jobs.
        self._slot_owner: dict[tuple[int, int], str] = {}

    # -- lookup ------------------------------------------------------------
    @property
    def num_machines(self) -> int:
        return len(self.machines)

    def machine(self, machine_id: int) -> Machine:
        return self.machines[machine_id]

    def device(self, machine_id: int, local_idx: int) -> Device:
        return self.machines[machine_id].devices[local_idx]

    def alive_machines(self) -> list[Machine]:
        return [m for m in self.machines if m.alive]

    def failed_machines(self) -> list[Machine]:
        return [m for m in self.machines if not m.alive]

    # -- slot accounting ------------------------------------------------------
    def reserve_slots(
        self, slots: list[tuple[int, int]], owner: str
    ) -> None:
        """Assign free ``(machine_id, device_idx)`` slots to ``owner``."""
        for slot in slots:
            holder = self._slot_owner.get(slot)
            if holder is not None and holder != owner:
                raise ValueError(
                    f"slot {slot} already owned by {holder!r}"
                )
        for slot in slots:
            self._slot_owner[slot] = owner

    def release_slots(
        self, slots: list[tuple[int, int]], owner: str | None = None
    ) -> None:
        """Return slots to the free pool (``owner`` asserts ownership)."""
        for slot in slots:
            holder = self._slot_owner.get(slot)
            if owner is not None and holder != owner:
                raise ValueError(
                    f"slot {slot} owned by {holder!r}, not {owner!r}"
                )
            self._slot_owner.pop(slot, None)

    def release_owner(self, owner: str) -> list[tuple[int, int]]:
        """Release every slot held by ``owner``; returns the freed slots."""
        freed = self.owned_slots(owner)
        for slot in freed:
            del self._slot_owner[slot]
        return freed

    def owned_slots(self, owner: str) -> list[tuple[int, int]]:
        return sorted(
            slot for slot, who in self._slot_owner.items() if who == owner
        )

    def owners_on_machine(self, machine_id: int) -> set[str]:
        """Distinct owners holding at least one slot on a machine."""
        return {
            who for (m, _), who in self._slot_owner.items() if m == machine_id
        }

    def free_slots(self) -> list[tuple[int, int]]:
        """Unowned slots on live machines, ordered by (machine, device)."""
        return [
            (m.machine_id, d)
            for m in self.machines
            if m.alive
            for d in range(len(m.devices))
            if (m.machine_id, d) not in self._slot_owner
        ]

    # -- failure handling ---------------------------------------------------
    def fail_machine(self, machine_id: int) -> None:
        self.machines[machine_id].fail()

    def replace_machine(self, machine_id: int) -> Machine:
        """Swap in a replacement for a failed machine (same slot/id)."""
        machine = self.machines[machine_id]
        machine.replace()
        self._replacements.append(machine_id)
        return machine

    # -- transfer pricing -----------------------------------------------------
    def same_machine(self, a: Device, b: Device) -> bool:
        return a.machine.machine_id == b.machine.machine_id

    def link_bandwidth(self, a: Device, b: Device) -> float:
        return self.bandwidth.nvlink if self.same_machine(a, b) else self.bandwidth.network

    def transfer_time(self, nbytes: float, a: Device, b: Device) -> float:
        """Point-to-point transfer time between two devices."""
        if nbytes <= 0:
            return self.bandwidth.latency
        return self.bandwidth.latency + nbytes / self.link_bandwidth(a, b)

    def pcie_time(self, nbytes: float) -> float:
        """GPU -> CPU (or back) copy time; the logging/snapshot cost unit."""
        return nbytes / self.bandwidth.pcie if nbytes > 0 else 0.0
