"""Simulated machine: a set of devices, a local disk, and fail-stop state."""

from __future__ import annotations

from repro.cluster.device import Device, GiB
from repro.cluster.storage import LocalDisk
from repro.errors import MachineFailure

__all__ = ["Machine"]


class Machine:
    """One physical server (the failure domain of the fail-stop model).

    The paper's key observation about failure granularity: "GPUs are rare
    to fail individually, while a machine crash is more common" (Section
    5.1).  Failures in this library therefore happen at machine scope: all
    devices wipe, the CPU memory wipes, but the local disk — and anything
    persisted to it — survives a *process* crash, while the global store
    survives even a permanent machine loss.
    """

    def __init__(
        self,
        machine_id: int,
        num_devices: int = 8,
        device_memory: int = 32 * GiB,
        cpu_memory: int = 1536 * GiB,
        disk: LocalDisk | None = None,
    ):
        self.machine_id = machine_id
        self.alive = True
        #: how many times this slot's hardware has failed (the signal
        #: failure-aware placement in :mod:`repro.jobs` steers away from)
        self.failure_count = 0
        self.devices = [
            Device(machine_id * 1000 + i, self, device_memory)
            for i in range(num_devices)
        ]
        self.cpu_memory = int(cpu_memory)
        self.disk = disk or LocalDisk()
        #: CPU-memory staging area (snapshots, logging buffers)
        self._cpu_store: dict[str, object] = {}

    # -- fail-stop -----------------------------------------------------------
    def fail(self) -> None:
        """Crash the machine: all volatile state is lost."""
        if self.alive:
            self.failure_count += 1
        self.take_offline()

    def replace(self) -> None:
        """Bring up a replacement with the same identity but empty state.

        This models the paper's "a replacement machine will be added to the
        training job" (Section 3); recovery then repopulates its state.
        """
        self.alive = True
        for dev in self.devices:
            dev.wipe()
        self._cpu_store.clear()

    def take_offline(self) -> None:
        """Mark the machine down without recording a new hardware failure.

        Used by the fleet simulator to keep each machine's health as the
        control plane has it: a job's recovery replaces every failed
        machine it sees, including broken machines it does not own —
        those must stay down until their own repair/recovery actually
        happens — and must see the machines it lost as failed, even one
        whose replacement was leased while the job still waited.
        """
        self.alive = False
        for dev in self.devices:
            dev.wipe()
        self._cpu_store.clear()

    def check_alive(self) -> None:
        if not self.alive:
            raise MachineFailure(self.machine_id)

    # -- CPU staging -----------------------------------------------------------
    def cpu_put(self, key: str, value: object) -> None:
        self.check_alive()
        self._cpu_store[key] = value

    def cpu_contains(self, key: str) -> bool:
        return self.alive and key in self._cpu_store

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "alive" if self.alive else "failed"
        return f"Machine(id={self.machine_id}, devices={len(self.devices)}, {state})"
