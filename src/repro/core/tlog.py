"""The tensor log: upstream, asynchronous, bubble-scheduled logging (§5.1).

Senders log every *inter-machine* (and, with selective logging, inter-
*group*) message they emit: intermediate activations in the forward pass,
gradients in the backward pass, each with (sender, receiver, iteration,
micro-batch, phase) metadata — the timestamp that orders replay.

Three logging modes model the paper's comparison:

* ``SYNC``   — ``torch.save`` before every send; the copy sits on the
  critical path (the paper's synchronous-logging baseline, Figure 8b/c).
* ``ASYNC``  — background copy overlapped with compute, but PCIe contention
  still leaks into iteration time (like CheckFreq's async persist, §2.2).
* ``BUBBLE`` — Swift's design: copies wait for pipeline bubbles; overhead
  appears only if an iteration's log volume exceeds what PCIe can move
  within that stage's bubble time.

Garbage collection: a global checkpoint obsoletes all earlier records, so
the log size is bounded by (checkpoint interval) × (per-iteration volume)
— the quantity selective logging constrains (§5.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.cluster.device import Device
from repro.cluster.topology import Cluster
from repro.comm.p2p import Message, Transport
from repro.errors import LogIntegrityError
from repro.parallel.schedules import ScheduleTiming
from repro.utils.pool import PooledBuffer

__all__ = ["LoggingMode", "LogRecord", "GroupingPlan", "TensorLog"]


class LoggingMode(str, Enum):
    """When the GPU->CPU log copy runs relative to the pipeline (§5.1).

    ``SYNC`` blocks the iteration, ``ASYNC`` overlaps at an
    interference cost, ``BUBBLE`` hides the copy inside pipeline
    bubbles (the paper's default when the §5.4 calculus allows it).

    >>> LoggingMode("bubble") is LoggingMode.BUBBLE
    True
    """

    SYNC = "sync"
    ASYNC = "async"
    BUBBLE = "bubble"


@dataclass(frozen=True)
class LogRecord:
    """One logged message (raw tensor + replay-ordering metadata)."""

    sender_stage: int
    receiver_stage: int
    sender_machine: int
    receiver_machine: int
    iteration: int
    microbatch: int
    phase: str  # "fwd" or "bwd"
    seq: int
    tensor: np.ndarray = field(compare=False, repr=False)
    #: arena buffer shared with the transport message (zero-copy logging);
    #: released back to the pool when the record is garbage-collected
    buffer: PooledBuffer | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def nbytes(self) -> int:
        return int(self.tensor.nbytes)


@dataclass(frozen=True)
class GroupingPlan:
    """Machine grouping for selective logging (§5.3).

    Only messages crossing a *group* boundary are logged; with singleton
    groups (the default) this degenerates to logging all inter-machine
    traffic.

    >>> plan = GroupingPlan.singletons([0, 1, 2])
    >>> plan.groups
    ((0,), (1,), (2,))
    >>> GroupingPlan(((0, 1), (2,))).group_of(1)
    0
    """

    groups: tuple[tuple[int, ...], ...]

    @staticmethod
    def singletons(machine_ids: list[int]) -> "GroupingPlan":
        return GroupingPlan(tuple((m,) for m in machine_ids))

    @staticmethod
    def of(groups: list[list[int]]) -> "GroupingPlan":
        return GroupingPlan(tuple(tuple(g) for g in groups))

    def group_of(self, machine_id: int) -> int:
        for gi, group in enumerate(self.groups):
            if machine_id in group:
                return gi
        raise KeyError(f"machine {machine_id} not in any group")

    def same_group(self, a: int, b: int) -> bool:
        return self.group_of(a) == self.group_of(b)

    def group_machines(self, machine_id: int) -> tuple[int, ...]:
        return self.groups[self.group_of(machine_id)]

    @property
    def num_groups(self) -> int:
        return len(self.groups)


class TensorLog:
    """Sender-side tensor log attached to a pipeline transport.

    One record per logged message, looked up by what the failed worker's
    replayed ``RecvActivation``/``RecvGrad`` names: ``(receiving model
    chunk, iteration, micro-batch, phase)`` — the receiving stage itself
    on flat schedules; interleaved ones host several chunks per worker,
    which therefore never collide.
    """

    def __init__(
        self,
        cluster: Cluster,
        grouping: GroupingPlan | None = None,
        mode: LoggingMode = LoggingMode.BUBBLE,
        async_interference: float = 0.25,
        precision: str = "full",
    ):
        if precision not in ("full", "fp16"):
            raise ValueError(f"unknown logging precision {precision!r}")
        self.cluster = cluster
        self.grouping = grouping
        self.mode = mode
        #: "fp16" halves the logged volume at the cost of exactness —
        #: the mixed-precision extension the paper sketches in Section 8.
        #: Replay then recovers an approximately (not bitwise) equal state.
        self.precision = precision
        #: PCIe-contention leak factor for plain ASYNC mode
        self.async_interference = async_interference
        #: the transport's buffer arena, when pooled messaging is wired
        #: (set by SwiftTrainer); gc() advances its quarantine epoch
        self.pool = None
        #: (receiver_chunk, iteration, microbatch, phase) -> record
        self._index: dict[tuple[int, int, int, str], LogRecord] = {}
        #: per-sender-machine record keys (for failure drops and accounting)
        self._by_machine: dict[int, list[tuple[int, int, int, str]]] = {}
        #: bytes logged per sender stage in the current iteration
        self._iter_bytes_by_stage: dict[int, int] = {}
        #: total bytes logged per iteration (history for Table 3)
        self.bytes_per_iteration: dict[int, int] = {}
        #: sum of every indexed record's bytes, kept by tap/gc/drop_machine
        self._total_bytes = 0

    # -- wiring ---------------------------------------------------------------
    def attach(self, transport: Transport) -> None:
        transport.add_tap(self.tap)

    def should_log(self, src_machine: int, dst_machine: int) -> bool:
        if src_machine == dst_machine:
            return False  # GPU-to-GPU within a machine is never logged
        if self.grouping is not None and self.grouping.same_group(
            src_machine, dst_machine
        ):
            return False  # intra-group traffic skipped (selective logging)
        return True

    def tap(self, msg: Message, src_dev: Device, dst_dev: Device) -> None:
        src_m = src_dev.machine.machine_id
        dst_m = dst_dev.machine.machine_id
        if not self.should_log(src_m, dst_m):
            return
        buffer = None
        if self.precision == "fp16":
            # down-cast allocates a fresh (private) half-precision array
            tensor = np.asarray(msg.tensor).astype(np.float16)
        elif msg.buffer is not None:
            # zero-copy logging: share the message's pooled read-only
            # tensor instead of cloning it a second time
            tensor = msg.tensor
            buffer = msg.buffer.retain()
        else:
            tensor = np.array(msg.tensor, copy=True)
        chunk = msg.dst_rank if msg.dst_chunk is None else msg.dst_chunk
        record = LogRecord(
            sender_stage=msg.src_rank,
            receiver_stage=msg.dst_rank,
            sender_machine=src_m,
            receiver_machine=dst_m,
            iteration=msg.iteration,
            microbatch=msg.microbatch,
            phase=msg.phase,
            seq=msg.seq,
            tensor=tensor,
            buffer=buffer,
        )
        key = (chunk, msg.iteration, msg.microbatch, msg.phase)
        stale = self._index.get(key)
        if stale is not None and stale.buffer is not None:
            stale.buffer.release()  # a re-run overwrote this record
        self._index[key] = record
        self._total_bytes += record.nbytes - (stale.nbytes if stale else 0)
        self._by_machine.setdefault(src_m, []).append(key)
        self._iter_bytes_by_stage[msg.src_rank] = (
            self._iter_bytes_by_stage.get(msg.src_rank, 0) + record.nbytes
        )
        self.bytes_per_iteration[msg.iteration] = (
            self.bytes_per_iteration.get(msg.iteration, 0) + record.nbytes
        )

    # -- timing hook (plugged into PipelineEngine.overhead_hooks) -----------
    def make_overhead_hook(self):
        """Return a hook charging this iteration's logging overhead.

        The hook also resets the per-iteration byte counters, so it must be
        registered exactly once per engine.
        """

        def hook(timing: ScheduleTiming) -> tuple[str, float]:
            pcie = self.cluster.bandwidth.pcie
            worst = 0.0
            for stage, nbytes in self._iter_bytes_by_stage.items():
                copy = nbytes / pcie
                if self.mode is LoggingMode.SYNC:
                    overhead = copy
                elif self.mode is LoggingMode.ASYNC:
                    overhead = self.async_interference * copy
                else:  # BUBBLE: only the spill beyond the bubble window
                    bubble = (
                        timing.stage_bubble[stage]
                        if stage < len(timing.stage_bubble)
                        else 0.0
                    )
                    overhead = max(0.0, copy - bubble)
                worst = max(worst, overhead)
            self._iter_bytes_by_stage.clear()
            return ("logging", worst)

        return hook

    # -- queries ---------------------------------------------------------------
    def query(
        self, chunk: int, iteration: int, microbatch: int, phase: str
    ) -> LogRecord:
        """Fetch the record replay needs, or fail loudly (§1: a missing
        record makes precise recovery impossible)."""
        key = (chunk, iteration, microbatch, phase)
        try:
            return self._index[key]
        except KeyError:
            raise LogIntegrityError(
                f"missing log record for chunk {chunk}, iteration "
                f"{iteration}, microbatch {microbatch}, phase {phase!r}"
            ) from None

    def has(self, chunk: int, iteration: int, microbatch: int,
            phase: str) -> bool:
        return (chunk, iteration, microbatch, phase) in self._index

    def total_bytes(self) -> int:
        return self._total_bytes

    # -- lifecycle -----------------------------------------------------------
    def drop_machine(self, machine_id: int) -> int:
        """A sender machine crashed: its log records are gone (volatile).

        Returns the number of records dropped.  Replay never needs a failed
        machine's own records (upstream backup), but cascading-failure
        handling must know they are unavailable.
        """
        keys = self._by_machine.pop(machine_id, [])
        dropped = 0
        for key in keys:
            record = self._index.pop(key, None)
            if record is not None:
                self._total_bytes -= record.nbytes
                if record.buffer is not None:
                    record.buffer.release()
                dropped += 1
        return dropped

    def gc(self, checkpoint_iteration: int) -> int:
        """Drop records older than a completed global checkpoint.

        Returns bytes freed.  This is what bounds log storage by the
        checkpoint interval (§5.1 "Garbage collection") — and what returns
        pooled tensor buffers to the arena for reuse.
        """
        if self.pool is not None:
            # age the quarantine generations BEFORE this round's releases:
            # buffers freed now stay unallocatable for two more
            # checkpoints, protecting receiver-retained views
            self.pool.advance_epoch()
        freed = 0
        doomed = [
            k for k, r in self._index.items() if r.iteration < checkpoint_iteration
        ]
        for key in doomed:
            record = self._index[key]
            freed += record.nbytes
            if record.buffer is not None:
                record.buffer.release()
            del self._index[key]
        self._total_bytes -= freed
        for machine, keys in self._by_machine.items():
            self._by_machine[machine] = [k for k in keys if k in self._index]
        for it in [i for i in self.bytes_per_iteration if i < checkpoint_iteration]:
            del self.bytes_per_iteration[it]
        return freed

    # -- recovery-time transfer accounting ------------------------------------
    def upload_bytes_for(self, iterations: range, exclude_machine: int) -> int:
        """Bytes surviving machines must upload to the global store."""
        return sum(
            r.nbytes
            for r in self._index.values()
            if r.iteration in iterations and r.sender_machine != exclude_machine
        )
