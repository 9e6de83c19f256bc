"""Analytic cost model: all simulated seconds derive from here.

The temporal layer prices every operation with the paper's hardware
constants (Section 7 testbed: 40 Gbps Ethernet, PCIe-attached V100s, NVMe
disks).  The formulas implement Sections 2.1-2.2 and 5.1-5.4:

* pipeline iteration time ``(m + p - 1) · t_slot`` and bubble ratio
  ``(p-1)/(m+p-1)``;
* snapshot stall: on-GPU copy when the state fits, PCIe copy otherwise;
* logging volume per iteration and its bubble-time feasibility;
* recovery-time models for every method (global checkpointing,
  CheckFreq/Elastic-Horovod snapshots, Swift replication, Swift logging
  with/without parallel recovery) — the inputs to Figures 8-13 and
  Table 5.  :meth:`CostModel.pricing` resolves them once per (method,
  cadence, degree) for every simulator, trace walk and planner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.checkpoint import checkfreq_interval
from repro.core.detector import DETECTION_TIME
from repro.core.replication import (
    LOGGING_INIT_TIME,
    REPLACEMENT_JOIN_TIME,
    UNDO_KERNEL_TIME,
)
from repro.errors import ConfigurationError
from repro.parallel.schedules import bubble_ratio
from repro.sim.workloads import Workload

__all__ = ["HardwareConfig", "CostModel", "Pricing", "RecoveryPrice",
           "RecoveryTimes"]

GB = 1e9


@dataclass(frozen=True)
class HardwareConfig:
    """Bandwidths/latencies of the simulated testbed (bytes/s, seconds).

    Detection and undo are priced from the engines' constants, not here.
    """

    network_bw: float = 5.0 * GB  # 40 Gbps Ethernet
    pcie_bw: float = 12.0 * GB
    gpu_copy_bw: float = 700.0 * GB
    disk_write_bw: float = 2.0 * GB  # NVMe
    disk_read_bw: float = 3.0 * GB
    #: effective per-machine HDFS throughput (shared cluster, lower than
    #: the raw link)
    hdfs_bw: float = 2.5 * GB
    #: effective model-state snapshot throughput over PCIe.  Lower than the
    #: raw link because the snapshot is a per-tensor copy contending with
    #: training traffic; calibrated so CheckFreq's 3.5%-budget rule lands
    #: on the paper's "once per 30 iterations" for Wide-ResNet-50.
    snapshot_bw: float = 2.5 * GB
    gpu_memory: float = 32.0 * GB
    replacement_join_time: float = REPLACEMENT_JOIN_TIME


@dataclass(frozen=True)
class RecoveryTimes:
    """Recovery-time decomposition for one method and one failure."""

    method: str
    load_time: float
    recompute_time: float
    transfer_time: float = 0.0
    extra_time: float = 0.0
    #: detection + replacement join + the method's init, paid before the
    #: recovery proper starts (Figure 8's "init" column)
    initialization_time: float = 0.0

    @property
    def recovery_time(self) -> float:
        """Paper's metric: replacement join -> pre-failure iteration."""
        return self.load_time + max(self.recompute_time, self.transfer_time) \
            + self.extra_time


@dataclass(frozen=True)
class RecoveryPrice:
    """One method's recovery terms, resolved once; a crash is O(1).

    :meth:`times` is the :class:`RecoveryTimes` decomposition Figures
    8-10 and the ablations read; calling the price with the iterations a
    crash lost returns detection + replacement join + init +
    ``times(lost).recovery_time`` without building it.
    """

    method: str
    #: ``DETECTION_TIME`` + the replacement join, as every engine charges
    base: float
    load: float
    #: re-computation seconds per lost iteration
    replay: float
    extra: float = 0.0
    #: setup paid with the join, as the engines charge it (§7.1's logging
    #: init); not part of the paper's recovery time
    init: float = 0.0
    #: logging: each lost iteration fetches one forward and one backward
    #: boundary tensor of ``log_boundary_bytes`` per micro-batch at
    #: ``log_bw`` (upload and download pipelined)
    log_microbatches: int = 0
    log_boundary_bytes: float = 0.0
    log_bw: float = 1.0

    def _transfer(self, lost: int) -> float:
        return lost * 2.0 * self.log_microbatches \
            * self.log_boundary_bytes / self.log_bw

    def times(self, lost: int) -> RecoveryTimes:
        return RecoveryTimes(self.method, self.load, lost * self.replay,
                             self._transfer(lost), self.extra,
                             self.base + self.init)

    def __call__(self, lost: int) -> float:
        # init is added to the load first: the float sums the Table 5 and
        # scenario pins were taken with
        return self.base + (self.load + self.init
                            + max(lost * self.replay, self._transfer(lost))
                            + self.extra)


@dataclass(frozen=True)
class Pricing:
    """A method's price on one cost model at one cadence and degree.

    Built once by :meth:`CostModel.pricing`; every failure walk reads
    ``iteration_seconds`` per iteration and calls ``recovery(lost)`` per
    crash.
    """

    method: str
    #: checkpoint (or snapshot) cadence in iterations, default resolved
    interval: int
    #: failure-free iteration time plus the method's amortised overhead
    iteration_seconds: float
    #: seconds one crash costs, given the iterations it lost
    recovery: RecoveryPrice


class CostModel:
    """Prices training, checkpointing, logging, and recovery for a workload."""

    def __init__(self, workload: Workload, hw: HardwareConfig | None = None,
                 use_experiment_time: bool = True):
        self.w = workload
        self.hw = hw or HardwareConfig()
        #: True -> use the Section 7.1 measured iteration time (macro-
        #: benchmarks, Table 3); False -> use the Table 4 production
        #: iteration time (the simulation study of Section 7.3)
        self.use_experiment_time = use_experiment_time

    # -- iteration structure -------------------------------------------------
    @property
    def iteration_time(self) -> float:
        if self.use_experiment_time and self.w.experiment_iteration_time:
            return self.w.experiment_iteration_time
        return self.w.iteration_time

    @property
    def slot_time(self) -> float:
        """Per-micro-batch fwd+bwd time of one stage (uniform stages)."""
        if self.w.parallelism != "PP":
            return self.iteration_time
        p, m = self.w.num_stages, self.w.num_microbatches
        return self.iteration_time / (m + p - 1)

    @property
    def bubble_time(self) -> float:
        """Per-iteration idle time available for logging (Section 5.1)."""
        if self.w.parallelism != "PP":
            return 0.0
        return bubble_ratio(self.w.num_stages, self.w.num_microbatches) \
            * self.iteration_time

    # -- checkpoint / snapshot costs ----------------------------------------
    def per_shard_state_bytes(self) -> float:
        return self.w.state_bytes / max(self.w.num_workers, 1)

    def global_checkpoint_stall(self) -> float:
        """Synchronous checkpoint stall.

        DP: every worker writes a full replica (workers on one machine
        share PCIe/disk, so costs add per machine).  PP: shards write in
        parallel, pipelined with compute — stall is the slowest shard
        (Section 7.1: BERT-128 checkpoint overhead 0.93 s).
        """
        if self.w.parallelism == "PP":
            shard = self.per_shard_state_bytes()
            return shard / self.hw.pcie_bw + shard / self.hw.disk_write_bw
        state = self.w.state_bytes
        return state / self.hw.pcie_bw + state / self.hw.disk_write_bw

    def snapshot_stall(self, gpu_used_bytes: float | None = None) -> float:
        """CheckFreq/Elastic-Horovod snapshot stall (Section 2.2).

        With Wide-ResNet-50's 30.4 GB of 32 GB used, the 9.8 GB snapshot
        must cross PCIe.
        """
        state = self.w.state_bytes
        used = 30.4 * GB if gpu_used_bytes is None else gpu_used_bytes
        if state <= self.hw.gpu_memory - used:
            return state / self.hw.gpu_copy_bw
        return state / self.hw.snapshot_bw

    def checkfreq_persist_interference(self, interference: float = 0.10) -> float:
        """Per-snapshot throughput leak of the async disk write."""
        return interference * self.w.state_bytes / self.hw.disk_write_bw

    # -- logging costs (Section 5.1/5.4, Table 3) -----------------------------
    def logging_bytes_per_iteration(self, num_groups: int | None = None) -> float:
        return self.w.logging_bytes_per_iteration(num_groups)

    def logging_bytes_per_machine(self, num_groups: int | None = None) -> float:
        """Busiest sender: a boundary machine logs one fwd + one bwd stream."""
        if self.w.parallelism != "PP":
            return 0.0
        return 2.0 * self.w.num_microbatches * self.w.boundary_bytes

    def logging_copy_time(self, num_groups: int | None = None) -> float:
        return self.logging_bytes_per_machine(num_groups) / self.hw.pcie_bw

    def logging_overhead(self, mode: str = "bubble",
                         num_groups: int | None = None) -> float:
        """Per-iteration overhead of logging under each mode.

        ``sync`` models ``torch.save`` before every send: each boundary
        stage's slot grows by the message save time (PCIe copy + disk
        write), and the 1F1B span multiplies that by ``m + p - 1`` slots —
        which is why synchronous logging "significantly degrades training
        throughput" in Figure 8b/8c.
        """
        copy = self.logging_copy_time(num_groups)
        if mode == "sync":
            p, m = self.w.num_stages, self.w.num_microbatches
            save = self.w.boundary_bytes * (
                1.0 / self.hw.pcie_bw + 1.0 / self.hw.disk_write_bw
            )
            return (m + p - 1) * save
        if mode == "async":
            return 0.25 * copy
        if mode == "bubble":
            # the bubble available to one stage is roughly the iteration
            # bubble; spill only beyond it
            return max(0.0, copy - self.bubble_time)
        raise ValueError(f"unknown logging mode {mode!r}")

    def logging_bandwidth_per_machine(self, num_groups: int | None = None) -> float:
        """Table 3's 'average consumed bandwidth' column (GB/s per machine)."""
        total = self.logging_bytes_per_iteration(num_groups)
        return total / self.w.num_machines / self.iteration_time

    # -- pricing: the steady overhead and recovery of one method ---------------
    def pricing(self, method: str, interval: int | None = None,
                parallel_degree: int = 16) -> Pricing:
        """``method``'s price at one cadence and recovery degree.

        ``interval`` (checkpoint or snapshot cadence, in iterations)
        defaults to the workload's Table 4 setting, or to the tuned
        snapshot frequency for CheckFreq-style methods;
        ``parallel_degree`` is ``swift_logging_pr``'s replay degree.  All
        checks run here, before any crash is priced: a non-positive
        cadence, degree or iteration time raises
        :class:`~repro.errors.ConfigurationError`; an unknown method, or
        logging on a workload that is not pipeline-parallel, ``ValueError``.
        """
        snapshot = method in ("checkfreq", "elastic_horovod")
        if interval is None:
            interval = checkfreq_interval(
                self.iteration_time, self.snapshot_stall()
            ) if snapshot else self.w.checkpoint_interval_iters or 100
        if interval < 1:
            raise ConfigurationError(
                f"checkpoint interval must be >= 1, got {interval}"
            )
        if parallel_degree < 1:
            raise ConfigurationError(
                f"parallel_degree must be >= 1, got {parallel_degree}"
            )
        if self.iteration_time <= 0:
            raise ConfigurationError(
                f"workload {self.w.name!r} prices a non-positive "
                "iteration time; set experiment_iteration_time or "
                "total_iterations + end_to_end_hours"
            )
        recovery = self._recovery_price(
            method, parallel_degree if method.endswith("_pr") else 1)
        if method == "global_checkpoint":
            overhead = self.global_checkpoint_stall() / interval
        elif snapshot:
            overhead = self.snapshot_stall() / interval
            if method == "checkfreq":
                overhead += self.checkfreq_persist_interference() / interval
        elif method == "swift_replication":
            # zero failure-free overhead; only the safety-net checkpoints
            overhead = self.global_checkpoint_stall() / max(
                self.w.checkpoint_interval_iters, interval, 1
            )
        else:  # logging, with or without parallel replay
            overhead = self.logging_overhead("bubble") \
                + self.global_checkpoint_stall() / interval
        return Pricing(method, interval, self.iteration_time + overhead,
                       recovery)

    def _recovery_price(self, method: str, parallel_degree: int = 1,
                        machines_per_group: int = 1) -> RecoveryPrice:
        """Each method's recovery terms, written once for
        :meth:`pricing` and the ``recovery_*`` decompositions."""
        w, hw = self.w, self.hw
        base = DETECTION_TIME + hw.replacement_join_time
        if method == "global_checkpoint":
            return RecoveryPrice(method, base,
                                 self._load_checkpoint_time(w.num_workers),
                                 self.iteration_time)
        if method in ("checkfreq", "elastic_horovod"):
            state = w.state_bytes
            return RecoveryPrice(method, base, state / hw.pcie_bw
                                 + state / hw.network_bw, self.iteration_time)
        if method == "swift_replication":
            # undo + broadcast, no recompute
            return RecoveryPrice(
                method, base, 0.0, 0.0,
                extra=w.state_bytes / hw.network_bw + UNDO_KERNEL_TIME)
        if method not in ("swift_logging", "swift_logging_pr"):
            raise ValueError(f"unknown method {method!r}")
        if w.parallelism != "PP":
            raise ValueError("logging recovery applies to pipeline parallelism")
        s = machines_per_group * w.gpus_per_machine
        m = w.num_microbatches
        d = max(1, parallel_degree)
        per_iter = (math.ceil(m / d) + s - 1) * self.slot_time
        if d > 1:
            # each stage's recovery group all-reduces its own (per-stage)
            # state concurrently with the other stages' groups
            per_iter += 2.0 * (d - 1) / d * self.per_shard_state_bytes() \
                / hw.network_bw
        # the failed group re-reads its boundary inputs (fwd into the
        # first stage, bwd into the last) for every lost iteration; the
        # §7.1 logging init is charged with the join, as LoggingRecovery
        # charges it, not inside the load
        return RecoveryPrice(
            method, base, self._load_checkpoint_time(s), per_iter,
            init=LOGGING_INIT_TIME, log_microbatches=m,
            log_boundary_bytes=w.boundary_bytes, log_bw=hw.hdfs_bw,
        )

    # -- recovery-time models --------------------------------------------------
    def _load_checkpoint_time(self, scope_workers: int) -> float:
        shard = self.per_shard_state_bytes()
        per_machine = shard * self.w.gpus_per_machine
        return per_machine / self.hw.hdfs_bw + shard / self.hw.pcie_bw

    def recovery_global_checkpoint(self, lost_iterations: int) -> RecoveryTimes:
        """All workers load the checkpoint and redo the lost iterations."""
        return self._recovery_price("global_checkpoint").times(lost_iterations)

    def recovery_snapshot(self, lost_iterations_since_snapshot: int,
                          method: str) -> RecoveryTimes:
        """CheckFreq / Elastic Horovod: roll back to the last snapshot.

        Survivors restore from their in-memory snapshot (a PCIe copy back),
        broadcast to the replacement, and redo the iterations since the
        snapshot (Section 7.1: 30 iterations at snapshot interval 30).
        """
        return self._recovery_price(method).times(
            lost_iterations_since_snapshot)

    def recovery_replication(self) -> RecoveryTimes:
        """Swift replication: undo + broadcast, no recompute (Section 4)."""
        return self._recovery_price("swift_replication").times(0)

    def recovery_logging(
        self,
        lost_iterations: int,
        machines_per_group: int = 1,
        parallel_degree: int = 1,
    ) -> RecoveryTimes:
        """Swift logging: replay the failed group's sub-pipeline (§5.1-5.3).

        The sub-pipeline has ``machines_per_group * gpus_per_machine``
        stages; replay pipelines micro-batches through it without the
        global pipeline's bubbles; parallel recovery divides micro-batches
        across ``parallel_degree`` workers (and adds a gradient sync).
        """
        method = "swift_logging" if parallel_degree <= 1 else "swift_logging_pr"
        return self._recovery_price(
            method, parallel_degree, machines_per_group).times(lost_iterations)
