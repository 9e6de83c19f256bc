"""Collective communication over the simulated cluster.

Data parallelism synchronizes gradients with all-reduce; replication-based
recovery broadcasts the surviving replica's state (paper Sections 2.1, 4).
An all-reduce's sum needs no call here: engines fold every worker's
backward into one gradient buffer in ascending rank
(:mod:`repro.utils.flat`), so the group only checks who takes part
(:meth:`CollectiveGroup.check_members`) and prices the transfer.  Time uses
the standard ring-algorithm model: all-reduce moves ``2 (n-1)/n`` of the
buffer over the slowest link, broadcast/all-gather move ``(n-1)/n``.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.cluster.device import Device
from repro.cluster.topology import Cluster
from repro.errors import CommunicationError

__all__ = ["CollectiveGroup"]


class CollectiveGroup:
    """A fixed group of ranks participating in collectives."""

    def __init__(self, cluster: Cluster, devices: dict[int, Device]):
        if not devices:
            raise ValueError("collective group needs at least one member")
        self.cluster = cluster
        self.devices = dict(devices)
        #: slowest ring link, computed once — membership is fixed at
        #: construction and link bandwidth depends only on machine
        #: placement, so the scan is loop-invariant across iterations
        self._slowest_link_cache: float | None = None

    @property
    def size(self) -> int:
        return len(self.devices)

    def _check_alive(self) -> None:
        for rank, dev in self.devices.items():
            if not dev.alive:
                raise CommunicationError(rank, rank, f"rank {rank} is dead")

    def check_members(self, ranks: Iterable[int]) -> None:
        """Refuse a collective over ``ranks`` unless every member is alive
        and ``ranks`` are exactly the members."""
        self._check_alive()
        if set(ranks) != self.devices.keys():
            raise CommunicationError(
                -1, -1, "allreduce called with mismatched participant set"
            )

    def _slowest_link(self) -> float:
        """Bandwidth of the slowest pairwise link in the ring (cached)."""
        if self._slowest_link_cache is None:
            devs = list(self.devices.values())
            if len(devs) == 1:
                self._slowest_link_cache = self.cluster.bandwidth.nvlink
            else:
                self._slowest_link_cache = min(
                    self.cluster.link_bandwidth(devs[i], devs[(i + 1) % len(devs)])
                    for i in range(len(devs))
                )
        return self._slowest_link_cache

    # -- timing -----------------------------------------------------------
    def allreduce_time(self, nbytes: float) -> float:
        n = self.size
        if n == 1 or nbytes <= 0:
            return 0.0
        return 2.0 * (n - 1) / n * nbytes / self._slowest_link()

    def broadcast_time(self, nbytes: float) -> float:
        n = self.size
        if n == 1 or nbytes <= 0:
            return 0.0
        return (n - 1) / n * nbytes / self._slowest_link()

    allgather_time = broadcast_time

    # -- data ---------------------------------------------------------------
    def broadcast(self, root: int, value: np.ndarray) -> dict[int, np.ndarray]:
        """Copy ``value`` from root to every rank (replica restoration)."""
        self._check_alive()
        if root not in self.devices:
            raise CommunicationError(root, root, f"root {root} not in group")
        return {rank: np.array(value, copy=True) for rank in self.devices}
