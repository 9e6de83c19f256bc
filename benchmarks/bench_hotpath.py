"""Hot-path microbenchmarks: zero-copy snapshots, pooled logging, deltas.

Measures the real (wall-clock) cost of the recovery primitives this repo
puts on the training critical path, comparing the zero-copy implementation
against the pre-PR eager-copy path, which is reproduced inline as the
baseline:

* **snapshot-heavy** — capturing a model+optimizer state per snapshot:
  eager ``clone_state`` (O(state bytes)) vs ``StateView.of`` (O(#keys));
* **logging-heavy**  — the send+log path: two fresh clones per message vs
  one copy into a pooled buffer shared by message and log record, with
  checkpoint GC recycling buffers;
* **incremental persist** — serializing a full state vs only the leaves
  the optimizer reported dirty;
* **end-to-end** — iterations/sec of the 3-job fleet scenario.

Every speedup claim is paired with an equivalence check: recovery
end-states must be bitwise identical (``state_equal``) between the eager
and zero-copy paths for replication, logging replay, and checkpoint
restore, and float-tolerant (``state_allclose``) for the undo path.

Run::

    PYTHONPATH=src python benchmarks/bench_hotpath.py [--quick]
        [--min-speedup 1.5]

Writes ``BENCH_hotpath.json`` at the repo root and exits non-zero if the
snapshot or logging speedup regresses below ``--min-speedup``.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from _common import emit, fmt_table, write_bench_json
from repro.cluster import (
    Cluster,
    FailureEvent,
    FailurePhase,
    FailureSchedule,
    SimClock,
)
from repro.comm.collectives import CollectiveGroup
from repro.comm.p2p import Transport
from repro.core import (
    CheckpointManager,
    FailureDetector,
    ReplicationRecovery,
    SnapshotManager,
    SwiftTrainer,
    TensorLog,
    TrainerConfig,
)
from repro.core.replication import UNDO_KERNEL_TIME
from repro.data import ClassificationTask
from repro.jobs import JobSpec
from repro.models import make_mlp
from repro.nn import CrossEntropyLoss
from repro.optim import Adam, SGDMomentum
from repro.parallel import DataParallelEngine, PipelineEngine
from repro.sim import FleetFailure, FleetSimulator
from repro.utils import (
    BufferPool,
    StateView,
    clone_state,
    save_state_bytes,
    load_state_bytes,
    state_allclose,
    state_equal,
)


def best_of(fn, repeats: int = 3) -> float:
    """Minimum wall time of ``fn`` over ``repeats`` runs (noise floor)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def make_state(leaves: int, side: int, seed: int = 0) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {f"layer{i}/w": rng.normal(size=(side, side)) for i in range(leaves)}


# ---------------------------------------------------------------------------
# 1. snapshot-heavy: eager clone vs COW view
# ---------------------------------------------------------------------------

def bench_snapshot(quick: bool) -> dict:
    leaves, side = (16, 128) if quick else (32, 256)
    rounds = 30 if quick else 50
    state = make_state(leaves, side)
    state_mb = sum(v.nbytes for v in state.values()) / 1e6

    def eager():
        store = {}
        for i in range(rounds):
            store[i] = clone_state(state)  # the pre-PR snapshot primitive

    def cow():
        store = {}
        for i in range(rounds):
            store[i] = StateView.of(state)

    eager_s = best_of(eager)
    cow_s = best_of(cow)

    # restore equivalence: the COW snapshot materializes to the exact bytes
    # the eager clone preserved, even after the producer rebinds its state
    eager_snap = clone_state(state)
    cow_snap = StateView.of(state)
    mutated = {k: v * 2.0 for k, v in state.items()}  # out-of-place update
    assert state_equal(eager_snap, cow_snap.materialize())
    assert not state_equal(mutated, cow_snap.materialize())

    # the full SnapshotManager.take path (sim cost model + capture)
    mgr = SnapshotManager(Cluster(2), SimClock(), mode="elastic")

    def manager_take():
        for i in range(rounds):
            mgr.take(0, 0, state, i, gpu_free_bytes=10**12)

    take_s = best_of(manager_take)

    return {
        "state_mb": round(state_mb, 2),
        "rounds": rounds,
        "eager_s": eager_s,
        "cow_s": cow_s,
        "speedup": eager_s / cow_s,
        "manager_take_s": take_s,
    }


# ---------------------------------------------------------------------------
# 2. logging-heavy: two fresh clones vs one pooled copy
# ---------------------------------------------------------------------------

def run_log_loop(pool: BufferPool | None, sends: int, tensor: np.ndarray,
                 gc_every: int = 10):
    """Drive the send+recv+log loop; returns (transport, tlog)."""
    cluster = Cluster(2, devices_per_machine=1)
    devices = {0: cluster.device(0, 0), 1: cluster.device(1, 0)}
    transport = Transport(cluster, devices, pool=pool)
    tlog = TensorLog(cluster)
    tlog.pool = pool
    tlog.attach(transport)
    for it in range(sends):
        transport.send(0, 1, tensor, iteration=it, microbatch=0, phase="fwd")
        transport.recv(1, 0)
        if it % gc_every == gc_every - 1:
            tlog.gc(it - gc_every // 2)  # checkpoint truncates older records
    return transport, tlog


def bench_logging(quick: bool) -> dict:
    side = 384 if quick else 512
    # long enough that the arena's two-epoch quarantine warmup amortizes
    # and steady-state reuse dominates, as in a real training loop
    sends = 150 if quick else 300
    records = 100 if quick else 200
    tensor = np.random.default_rng(1).normal(size=(side, side))
    mb_moved = tensor.nbytes * sends / 1e6

    # -- log-record throughput: what TensorLog.record costs per message.
    # Pre-PR the tap clones the tensor (O(bytes)); with a pooled message
    # it shares the buffer (O(1)).  Messages are pre-built outside the
    # timed region so only the record step is measured.
    cluster = Cluster(2, devices_per_machine=1)
    src_dev, dst_dev = cluster.device(0, 0), cluster.device(1, 0)
    pool = BufferPool()

    def build_msgs(pooled: bool):
        from repro.comm.p2p import Message

        msgs = []
        for mb in range(records):
            buf = pool.capture(tensor) if pooled else None
            msgs.append(Message(
                src_rank=0, dst_rank=1,
                tensor=buf.array if pooled else np.array(tensor, copy=True),
                iteration=0, microbatch=mb, phase="fwd", seq=mb, buffer=buf,
            ))
        return msgs

    eager_msgs, pooled_msgs = build_msgs(False), build_msgs(True)

    def record_loop(msgs):
        # tap retains each pooled buffer and gc releases it — refcounts
        # return to their pre-loop state, so repeats stay balanced
        tlog = TensorLog(cluster)
        for msg in msgs:
            tlog.tap(msg, src_dev, dst_dev)
        tlog.gc(1)  # truncate: releases the log's buffer references

    record_eager_s = best_of(lambda: record_loop(eager_msgs))
    record_pool_s = best_of(lambda: record_loop(pooled_msgs))

    # -- end-to-end send+recv+log loop (one pooled copy vs two clones) ----
    nopool_s = best_of(lambda: run_log_loop(None, sends, tensor))
    pool_s = best_of(lambda: run_log_loop(BufferPool(), sends, tensor))

    # equivalence: pooled and unpooled logs hold bitwise-identical tensors
    check_pool = BufferPool()
    _, tlog_a = run_log_loop(None, 12, tensor, gc_every=100)
    _, tlog_b = run_log_loop(check_pool, 12, tensor, gc_every=100)
    for it in range(12):
        a = tlog_a.query(1, it, 0, "fwd").tensor
        b = tlog_b.query(1, it, 0, "fwd").tensor
        assert np.array_equal(a, b)
    # a gc-ing loop must actually recycle arena storage
    recycling_pool = BufferPool()
    run_log_loop(recycling_pool, 30, tensor, gc_every=5)
    assert recycling_pool.hits > 0 and recycling_pool.recycled > 0

    return {
        "tensor_mb": round(tensor.nbytes / 1e6, 3),
        "records": records,
        "record_eager_s": record_eager_s,
        "record_pool_s": record_pool_s,
        "speedup": record_eager_s / record_pool_s,
        "records_per_s_pool": records / record_pool_s,
        "sends": sends,
        "mb_moved": round(mb_moved, 1),
        "sendlog_nopool_s": nopool_s,
        "sendlog_pool_s": pool_s,
        "sendlog_speedup": nopool_s / pool_s,
    }


# ---------------------------------------------------------------------------
# 3. incremental persist: full blob vs dirty-leaf delta
# ---------------------------------------------------------------------------

def bench_incremental(quick: bool) -> dict:
    leaves, side = (32, 64) if quick else (64, 128)
    state = make_state(leaves, side, seed=2)
    dirty = {f"layer{i}/w" for i in range(leaves // 16 or 1)}
    next_state = dict(state)
    for k in dirty:
        next_state[k] = state[k] + 1.0

    full_s = best_of(lambda: save_state_bytes(next_state))
    delta_s = best_of(lambda: save_state_bytes(next_state, keys=dirty))
    full_blob = save_state_bytes(next_state)
    delta_blob = save_state_bytes(next_state, keys=dirty)

    # a delta overlaid on its base reconstructs the full state bitwise
    restored = load_state_bytes(delta_blob, base=state)
    assert state_equal(restored, load_state_bytes(full_blob))

    return {
        "leaves": leaves,
        "dirty_leaves": len(dirty),
        "full_bytes": len(full_blob),
        "delta_bytes": len(delta_blob),
        "bytes_ratio": len(delta_blob) / len(full_blob),
        "full_s": full_s,
        "delta_s": delta_s,
        "speedup": full_s / delta_s,
    }


# ---------------------------------------------------------------------------
# 4. recovery equivalence: zero-copy vs eager end-states, bitwise
# ---------------------------------------------------------------------------

def make_dp_engine(seed: int = 7) -> DataParallelEngine:
    cluster = Cluster(2, devices_per_machine=2)
    placement = [(m, d) for m in range(2) for d in range(2)]
    task = ClassificationTask(dim=8, num_classes=4, batch_size=16, seed=3)
    return DataParallelEngine(
        cluster,
        model_factory=lambda: make_mlp(8, 16, 4, seed=seed),
        opt_factory=lambda m: SGDMomentum(m, lr=0.05, momentum=0.9,
                                          weight_decay=1e-4),
        loss_factory=CrossEntropyLoss,
        task=task,
        placement=placement,
    )


def make_pp_engine(seed: int = 7) -> PipelineEngine:
    cluster = Cluster(4, devices_per_machine=1)
    task = ClassificationTask(dim=8, num_classes=4, batch_size=16, seed=3)
    return PipelineEngine(
        cluster,
        model_factory=lambda: make_mlp(8, 16, 4, depth=3, seed=seed),
        partition_sizes=[2, 2, 2, 1],
        placement=[(s, 0) for s in range(4)],
        num_microbatches=4,
        opt_factory=lambda m: Adam(m, lr=0.01, weight_decay=1e-4),
        loss_factory=CrossEntropyLoss,
        task=task,
    )


class EagerReplicationRecovery(ReplicationRecovery):
    """The pre-PR replication restore: broadcast an eager deep copy."""

    def recover(self):
        from repro.core.undo import resolve_dp_consistency

        detection = self.detector.detect()
        failed_machines = [
            m.machine_id for m in self.engine.cluster.failed_machines()
        ] or [detection.machine_id]
        survivors = self.engine.alive_workers()
        undo_report = resolve_dp_consistency(self.engine)
        undo_time = UNDO_KERNEL_TIME if undo_report.num_undone else 0.0
        self.clock.advance(undo_time, "undo")
        for machine_id in failed_machines:
            self.engine.cluster.replace_machine(machine_id)
        self.clock.advance(self.replacement_join_time, "replacement_join")
        replaced = [
            w.rank for w in self.engine.workers
            if w.machine_id in failed_machines
        ]
        source = survivors[0]
        state = clone_state(source.full_state())  # the eager copy under test
        nbytes = sum(int(v.nbytes) for v in state.values())
        group = CollectiveGroup(
            self.engine.cluster,
            {w.rank: w.device for w in self.engine.workers},
        )
        broadcast_time = group.broadcast_time(nbytes)
        for rank in replaced:
            self.engine.restore_shard(rank, state)
        self.clock.advance(broadcast_time, "replica_broadcast")
        from repro.core.replication import RecoveryReport

        return RecoveryReport(
            strategy="replication",
            failed_machines=failed_machines,
            resume_iteration=self.engine.iteration,
            detection_time=detection.detection_time,
            init_time=self.replacement_join_time,
            undo_time=undo_time,
            restore_time=broadcast_time,
        )


def check_equivalence(quick: bool) -> dict:
    iters = 12 if quick else 20
    event = lambda: FailureEvent(1, 7, FailurePhase.MID_UPDATE,  # noqa: E731
                                 after_updates=2)

    # -- replication: zero-copy broadcast vs eager-clone broadcast --------
    def run_dp(eager: bool):
        eng = make_dp_engine()
        trainer = SwiftTrainer(eng, TrainerConfig(checkpoint_interval=8))
        if eager:
            trainer.recovery = EagerReplicationRecovery(
                eng, trainer.detector, trainer.clock
            )
        trainer.train(iters, failures=FailureSchedule([event()]))
        return {w.rank: w.full_state() for w in eng.workers}

    dp_cow, dp_eager = run_dp(eager=False), run_dp(eager=True)
    replication_bitwise = all(
        state_equal(dp_cow[r], dp_eager[r]) for r in dp_cow
    )

    # -- logging replay: pooled vs unpooled message path ------------------
    def run_pp(pooled: bool):
        eng = make_pp_engine()
        trainer = SwiftTrainer(
            eng,
            TrainerConfig(checkpoint_interval=8, pooled_messaging=pooled),
        )
        trainer.train(iters, failures=FailureSchedule(
            [FailureEvent(2, 9, FailurePhase.ITERATION_START)]
        ))
        return {sid: s.full_state() for sid, s in enumerate(eng.stages)}

    pp_pool, pp_nopool = run_pp(pooled=True), run_pp(pooled=False)
    replay_bitwise = all(
        state_equal(pp_pool[s], pp_nopool[s]) for s in pp_pool
    )

    # -- checkpoint restore: incremental chain vs full blobs --------------
    def run_ckpt(incremental: bool):
        eng = make_dp_engine()
        trainer = SwiftTrainer(eng, TrainerConfig(
            checkpoint_interval=4,
            incremental_checkpoints=incremental,
        ))
        trainer.train(iters)
        return trainer.checkpoints.load(0)[0]

    ckpt_bitwise = state_equal(run_ckpt(True), run_ckpt(False))

    # -- undo: float-tolerant restore of the pre-update state -------------
    model = make_mlp(8, 16, 4, seed=11)
    opt = SGDMomentum(model, lr=0.05, momentum=0.9, weight_decay=1e-4)
    before = model.state_dict()
    x = np.random.default_rng(5).normal(size=(4, 8))
    w = np.random.default_rng(6).normal(size=(4, 4))
    (model(x) * w).sum()
    model.zero_grad()
    model.backward(w)
    opt.step_flat()
    opt.undo()
    undo_allclose = state_allclose(before, model.state_dict())
    undo_not_bitwise_required = True  # §4: undo is exact up to fp rounding

    return {
        "replication_bitwise": bool(replication_bitwise),
        "logging_replay_bitwise": bool(replay_bitwise),
        "checkpoint_restore_bitwise": bool(ckpt_bitwise),
        "undo_allclose": bool(undo_allclose and undo_not_bitwise_required),
    }


# ---------------------------------------------------------------------------
# 5. end-to-end: fleet iterations/sec
# ---------------------------------------------------------------------------

def bench_fleet(quick: bool) -> dict:
    iters = 8 if quick else 20
    specs = [
        JobSpec("dp-a", "dp", num_workers=4, iterations=iters, priority=1,
                elastic=True, min_workers=2, checkpoint_interval=5, seed=21),
        JobSpec("pp-b", "pp", num_workers=4, iterations=iters, priority=2,
                checkpoint_interval=5, seed=22),
        JobSpec("dp-c", "dp", num_workers=4, iterations=iters, priority=0,
                checkpoint_interval=5, incremental_checkpoints=True, seed=23),
    ]
    failures = [FleetFailure(round=3, machine_id=0)]
    start = time.perf_counter()
    sim = FleetSimulator(specs, num_machines=7, devices_per_machine=2,
                         num_spares=1, failures=failures)
    report = sim.run()
    wall = time.perf_counter() - start
    total_iters = sum(s.iterations for s in specs)
    return {
        "wall_s": wall,
        "iterations_per_s": total_iters / wall,
        "jobs_completed": all(j.state == "completed" for j in report.jobs),
        "recoveries": report.total_recoveries,
    }


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small sizes for CI smoke runs")
    parser.add_argument("--min-speedup", type=float, default=1.5,
                        help="fail if snapshot/logging speedup drops below")
    args = parser.parse_args(argv)

    snapshot = bench_snapshot(args.quick)
    logging = bench_logging(args.quick)
    incremental = bench_incremental(args.quick)
    equivalence = check_equivalence(args.quick)
    fleet = bench_fleet(args.quick)

    rows = [
        ["snapshot capture", f"{snapshot['eager_s']*1e3:.2f}ms",
         f"{snapshot['cow_s']*1e3:.2f}ms", f"{snapshot['speedup']:.1f}x"],
        ["log record", f"{logging['record_eager_s']*1e3:.2f}ms",
         f"{logging['record_pool_s']*1e3:.2f}ms",
         f"{logging['speedup']:.1f}x"],
        ["send+recv+log", f"{logging['sendlog_nopool_s']*1e3:.2f}ms",
         f"{logging['sendlog_pool_s']*1e3:.2f}ms",
         f"{logging['sendlog_speedup']:.1f}x"],
        ["persist", f"{incremental['full_s']*1e3:.2f}ms",
         f"{incremental['delta_s']*1e3:.2f}ms",
         f"{incremental['speedup']:.1f}x"],
    ]
    emit("hotpath", fmt_table(
        ["path", "eager", "zero-copy", "speedup"], rows
    ) + "\n\nequivalence: " + ", ".join(
        f"{k}={v}" for k, v in equivalence.items()
    ) + f"\nfleet: {fleet['iterations_per_s']:.0f} iters/s "
        f"(completed={fleet['jobs_completed']})")

    results = {
        "quick": args.quick,
        "snapshot": snapshot,
        "logging": logging,
        "incremental": incremental,
        "equivalence": equivalence,
        "fleet": fleet,
    }
    write_bench_json("hotpath", results)

    failures = []
    if not all(equivalence.values()):
        failures.append(f"recovery equivalence violated: {equivalence}")
    if snapshot["speedup"] < args.min_speedup:
        failures.append(
            f"snapshot speedup {snapshot['speedup']:.2f}x < "
            f"{args.min_speedup}x"
        )
    if logging["speedup"] < args.min_speedup:
        failures.append(
            f"logging speedup {logging['speedup']:.2f}x < "
            f"{args.min_speedup}x"
        )
    for msg in failures:
        print(f"[bench] FAIL: {msg}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
