"""Point-to-point communication with sender-side logging taps.

Pipeline parallelism moves activations forward and gradients backward with
point-to-point messages (paper Section 2.1).  Swift's logging hooks in at
the *sender* — "the sender rather than the receiver logs the message", the
upstream-backup idea of Section 5.1 — so the transport exposes *taps*:
callbacks invoked on every send with full message metadata, which the
tensor log uses to capture inter-machine traffic.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.device import Device
from repro.cluster.topology import Cluster
from repro.errors import CommunicationError
from repro.utils.pool import BufferPool, PooledBuffer

__all__ = ["Message", "Transport"]


@dataclass(frozen=True)
class Message:
    """One point-to-point message with the metadata Swift logs.

    The (iteration, microbatch, phase) triple is the paper's "timestamp ...
    used to determine the order of the data to replay" (Section 5.1).
    """

    src_rank: int
    dst_rank: int
    tensor: np.ndarray
    iteration: int
    microbatch: int
    phase: str  # "fwd" (activation) or "bwd" (gradient)
    seq: int = 0
    #: model chunk the message is addressed to (interleaved schedules host
    #: several per rank); ``None`` = the rank's only chunk, ``dst_rank``
    dst_chunk: int | None = None
    #: arena buffer backing :attr:`tensor` when the transport pools sends;
    #: the tensor log shares (retains) it instead of copying again
    buffer: PooledBuffer | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def nbytes(self) -> int:
        return int(self.tensor.nbytes)


class Transport:
    """Synchronous channel-based transport over the simulated cluster.

    Sends are charged at link bandwidth by the caller's timing model (the
    transport itself reports the transfer cost so engines can place it on
    per-stage timelines).  Any operation touching a dead machine raises
    :class:`CommunicationError`, which is how failures are *detected*.
    """

    def __init__(self, cluster: Cluster, devices: dict[int, Device],
                 pool: BufferPool | None = None):
        self.cluster = cluster
        self.devices = dict(devices)
        #: optional buffer arena: sends copy once into pooled read-only
        #: storage shared with the tensor log, instead of two fresh clones
        self.pool = pool
        self._channels: dict[tuple[int, int], deque[Message]] = {}
        self._taps: list[Callable[[Message, Device, Device], None]] = []
        self._seq = 0

    # -- taps ---------------------------------------------------------------
    def add_tap(self, tap: Callable[[Message, Device, Device], None]) -> None:
        """Register a callback fired on every successful send."""
        self._taps.append(tap)

    # -- liveness -----------------------------------------------------------
    def _check(self, src: int, dst: int) -> tuple[Device, Device]:
        try:
            src_dev = self.devices[src]
            dst_dev = self.devices[dst]
        except KeyError as exc:
            raise CommunicationError(src, dst, f"unknown rank {exc}") from None
        if not src_dev.alive or not dst_dev.alive:
            raise CommunicationError(src, dst)
        return src_dev, dst_dev

    # -- messaging -----------------------------------------------------------
    def send(
        self,
        src: int,
        dst: int,
        tensor: np.ndarray,
        iteration: int,
        microbatch: int,
        phase: str,
        dst_chunk: int | None = None,
    ) -> float:
        """Enqueue a message; returns the simulated transfer time.

        The tensor is copied, in C order, so the sender may keep mutating
        its buffers — the same reason Swift's logger snapshots outgoing
        tensors.  With a pool attached, that is the *only* copy on the
        send+log path: the message carries a read-only pooled view that
        the log tap shares.
        """
        src_dev, dst_dev = self._check(src, dst)
        self._seq += 1
        if self.pool is not None:
            buf = self.pool.capture(tensor)
            payload = buf.array
        else:
            buf = None
            payload = np.array(tensor, order="C")
        msg = Message(
            src_rank=src,
            dst_rank=dst,
            tensor=payload,
            iteration=iteration,
            microbatch=microbatch,
            phase=phase,
            seq=self._seq,
            dst_chunk=dst_chunk,
            buffer=buf,
        )
        for tap in self._taps:
            tap(msg, src_dev, dst_dev)
        self._channels.setdefault((src, dst), deque()).append(msg)
        return self.cluster.transfer_time(msg.nbytes, src_dev, dst_dev)

    def recv(self, dst: int, src: int) -> Message:
        """Pop the oldest message on the (src → dst) channel."""
        self._check(src, dst)
        channel = self._channels.get((src, dst))
        if not channel:
            raise CommunicationError(
                src, dst, f"recv on empty channel {src} -> {dst}"
            )
        msg = channel.popleft()
        if msg.buffer is not None:
            # the receiver may keep aliasing the view, so the storage goes
            # through the pool's quarantine generation before reuse
            msg.buffer.seen_by_consumer = True
            msg.buffer.release()
        return msg

    def recv_matching(self, dst: int, src: int, phase: str) -> Message:
        """Pop the oldest (src → dst) message of the given phase.

        Interleaved pipeline schedules multiplex activations ("fwd") and
        gradients ("bwd") over the same directed stage pair, so the
        receiver selects by phase; within one phase the channel stays
        FIFO (which the static schedule verifier enforces).
        """
        self._check(src, dst)
        channel = self._channels.get((src, dst))
        if channel:
            for i, msg in enumerate(channel):
                if msg.phase == phase:
                    del channel[i]
                    if msg.buffer is not None:
                        msg.buffer.seen_by_consumer = True
                        msg.buffer.release()
                    return msg
        raise CommunicationError(
            src, dst, f"recv on channel {src} -> {dst}: no {phase!r} message"
        )

    def pending(self, src: int, dst: int) -> int:
        return len(self._channels.get((src, dst), ()))

    def drop_all(self) -> int:
        """Discard every in-flight message (a failed iteration is aborted
        wholesale — its partial traffic must not leak into the re-run)."""
        dropped = 0
        for channel in self._channels.values():
            for msg in channel:
                if msg.buffer is not None:
                    msg.buffer.release()  # undelivered: safe to recycle
            dropped += len(channel)
        self._channels.clear()
        return dropped
