"""Copy-on-write hazards: snapshots, pools, and incremental checkpoints.

The zero-copy layer replaces eager deep copies with shared read-only
arrays, so these tests attack exactly the aliasing hazards that sharing
introduces: mutate state *after* a snapshot, *after* a checkpoint restore,
and *during* a replication broadcast, and assert the stored version is
bitwise unaffected every time.
"""

import numpy as np
import pytest

from helpers import make_dp_engine, make_pp_engine
from repro.cluster import (
    Cluster,
    FailureEvent,
    FailurePhase,
    FailureSchedule,
    SimClock,
)
from repro.comm.p2p import Transport
from repro.core import (
    CheckpointDelta,
    CheckpointManager,
    FailureDetector,
    ReplicationRecovery,
    SnapshotManager,
    SwiftTrainer,
    TensorLog,
    TrainerConfig,
)
from repro.errors import CheckpointError
from repro.utils import (
    BufferPool,
    StateView,
    clone_state,
    load_state_bytes,
    save_state_bytes,
    state_allclose,
    state_equal,
)


def small_state(scale=1.0):
    return {"w": np.ones((16, 16)) * scale, "b": np.zeros(8)}


class TestStateView:
    def test_capture_is_zero_copy(self):
        s = small_state()
        view = StateView.of(s)
        assert np.shares_memory(view["w"], s["w"])

    def test_views_are_read_only(self):
        view = StateView.of(small_state())
        with pytest.raises(ValueError):
            view["w"][0, 0] = 7.0

    def test_freeze_trips_in_place_writers(self):
        """The COW tripwire: mutating the captured array object raises."""
        s = small_state()
        StateView.of(s)
        with pytest.raises(ValueError):
            s["w"] += 1.0

    def test_non_owning_leaves_are_copied_on_capture(self):
        """A slice of a live buffer cannot corrupt the snapshot through
        its base: writable non-owning arrays are copied, not frozen."""
        backing = np.zeros((4, 8))
        view = StateView.of({"w": backing[:2]})
        backing[...] = 7.0  # the base stays writable and live
        assert np.array_equal(view["w"], np.zeros((2, 8)))
        assert not np.shares_memory(view["w"], backing)

    def test_materialize_is_writable_and_private(self):
        s = small_state()
        view = StateView.of(s)
        out = view.materialize()
        out["w"][0, 0] = 42.0
        assert view["w"][0, 0] == 1.0

    def test_child_shares_unchanged_leaves(self):
        base = StateView.of(small_state())
        child = base.child({"b": np.ones(8)})
        assert child["w"] is base["w"]
        assert child.dirty == {"b"}
        assert child.parent_version == base.version
        assert child.version > base.version

    def test_child_rejects_unknown_keys(self):
        base = StateView.of(small_state())
        with pytest.raises(KeyError):
            base.child({"nope": np.zeros(1)})

    def test_select_shares_leaves(self):
        base = StateView.of(small_state())
        sub = base.select({"w"})
        assert list(sub) == ["w"] and sub["w"] is base["w"]

    def test_nbytes_matches_eager(self):
        s = small_state()
        assert StateView.of(s).nbytes == sum(v.nbytes for v in s.values())


class TestSnapshotHazards:
    def test_mutation_after_snapshot_does_not_leak(self):
        """Out-of-place updates (how optimizers rebind state) leave the
        snapshot bitwise intact; this is the hazard eager cloning paid
        O(bytes) to avoid."""
        mgr = SnapshotManager(Cluster(2), SimClock(), mode="elastic")
        state = small_state(3.0)
        reference = clone_state(state)
        mgr.take(0, machine_id=0, state=state, iteration=5,
                 gpu_free_bytes=10**12)
        state["w"] = state["w"] * -1.0  # producer rebinds after snapshot
        it, restored = mgr.latest(0)
        assert it == 5
        assert state_equal(restored, reference)

    def test_restored_snapshot_is_writable_copy(self):
        mgr = SnapshotManager(Cluster(1), SimClock(), mode="elastic")
        mgr.take(0, 0, small_state(), 1, 10**12)
        _, a = mgr.latest(0)
        a["w"][...] = -1.0
        _, b = mgr.latest(0)
        assert not np.array_equal(a["w"], b["w"])

    def test_latest_view_is_zero_copy(self):
        mgr = SnapshotManager(Cluster(1), SimClock(), mode="elastic")
        state = small_state()
        mgr.take(0, 0, state, 1, 10**12)
        _, view = mgr.latest_view(0)
        assert np.shares_memory(view["w"], state["w"])


class TestCheckpointHazards:
    def test_mutation_after_restore_does_not_leak(self):
        cluster, clock = Cluster(1), SimClock()
        mgr = CheckpointManager(cluster, clock)
        state = small_state(2.0)
        mgr.save_global({0: state}, iteration=3)
        restored, _ = mgr.load(0)
        restored["w"][...] = 9.0  # consumer scribbles on its copy
        again, _ = mgr.load(0)
        assert state_equal(again, {"w": np.ones((16, 16)) * 2.0,
                                   "b": np.zeros(8)})

    def test_incremental_roundtrip_bitwise(self):
        cluster, clock = Cluster(1), SimClock()
        mgr = CheckpointManager(cluster, clock, incremental=True)
        state = small_state(1.0)
        mgr.save_global({0: state}, iteration=0)
        # three delta saves, each changing only "b"
        current = dict(state)
        for it in (1, 2, 3):
            current = dict(current)
            current["b"] = np.full(8, float(it))
            mgr.save_global({0: current}, iteration=it, dirty={0: {"b"}})
        latest, _ = mgr.load(0)
        assert state_equal(latest, current)
        middle, _ = mgr.load(0, 2)
        assert np.array_equal(middle["b"], np.full(8, 2.0))
        assert np.array_equal(middle["w"], state["w"])

    def test_delta_blobs_store_only_dirty_leaves(self):
        cluster, clock = Cluster(1), SimClock()
        mgr = CheckpointManager(cluster, clock, incremental=True)
        state = small_state()
        mgr.save_global({0: state}, iteration=0)
        nxt = dict(state)
        nxt["b"] = np.ones(8)
        mgr.save_global({0: nxt}, iteration=1, dirty={0: {"b"}})
        blob = cluster.global_store._blobs[mgr._key(1, 0)]
        assert isinstance(blob.payload, CheckpointDelta)
        assert blob.nbytes == nxt["b"].nbytes  # only the dirty leaf

    def test_full_every_bounds_delta_chains(self):
        cluster, clock = Cluster(1), SimClock()
        mgr = CheckpointManager(cluster, clock, incremental=True,
                                full_every=2)
        state = small_state()
        for it in range(4):
            state = dict(state)
            state["b"] = np.full(8, float(it))
            mgr.save_global({0: state}, iteration=it, dirty={0: {"b"}})
        payloads = [cluster.global_store._blobs[mgr._key(it, 0)].payload
                    for it in range(4)]
        kinds = [isinstance(p, CheckpointDelta) for p in payloads]
        assert kinds == [False, True, False, True]

    def test_same_iteration_resave_never_self_references(self):
        """Re-saving the same iteration must not produce a delta whose
        base is its own storage key (which would loop forever on load)."""
        cluster, clock = Cluster(1), SimClock()
        mgr = CheckpointManager(cluster, clock, incremental=True)
        state = small_state()
        mgr.save_global({0: state}, iteration=5)
        nxt = dict(state, b=np.ones(8))
        mgr.save_global({0: nxt}, iteration=5, dirty={0: {"b"}})
        blob = cluster.global_store._blobs[mgr._key(5, 0)]
        assert not isinstance(blob.payload, CheckpointDelta)
        loaded, _ = mgr.load(0, 5)
        assert state_equal(loaded, nxt)

    def test_overwritten_base_detected_by_version(self):
        """A delta whose base blob was replaced by a different save must
        fail loudly instead of reconstructing a corrupt state."""
        cluster, clock = Cluster(1), SimClock()
        mgr = CheckpointManager(cluster, clock, incremental=True)
        state = small_state()
        mgr.save_global({0: state}, iteration=0)
        nxt = dict(state, b=np.ones(8))
        mgr.save_global({0: nxt}, iteration=1, dirty={0: {"b"}})
        # clobber the base with an unrelated full save (wrong version)
        cluster.global_store.upload(
            mgr._key(0, 0), 1, StateView.of(small_state(9.0))
        )
        with pytest.raises(CheckpointError, match="version mismatch"):
            mgr.load(0, 1)

    def test_incremental_without_dirty_report_stays_full(self):
        cluster, clock = Cluster(1), SimClock()
        mgr = CheckpointManager(cluster, clock, incremental=True)
        mgr.save_global({0: small_state()}, iteration=0)
        mgr.save_global({0: small_state(2.0)}, iteration=1)  # no dirty
        blob = cluster.global_store._blobs[mgr._key(1, 0)]
        assert not isinstance(blob.payload, CheckpointDelta)

    def test_bad_full_every_rejected(self):
        with pytest.raises(CheckpointError):
            CheckpointManager(Cluster(1), SimClock(), full_every=0)


class TestReplicationBroadcastHazard:
    def test_mutation_during_broadcast_does_not_leak(self):
        """Training the source replica right after recovery must not
        retroactively change what the replacements loaded."""
        eng = make_dp_engine()
        trainer = SwiftTrainer(eng, TrainerConfig(checkpoint_interval=8))
        trainer.train(6, failures=FailureSchedule(
            [FailureEvent(1, 4, FailurePhase.MID_UPDATE, after_updates=1)]
        ))
        # replicas agree bitwise after recovery ...
        states = [w.full_state() for w in eng.workers]
        assert all(state_equal(states[0], s) for s in states[1:])
        # ... and hold private arrays: scribbling on one replica's params
        # must not reach any other replica
        w0 = eng.workers[0]
        for name, param in w0.model.named_parameters():
            assert not any(
                np.shares_memory(param.data, other.model.state_dict()[name])
                for other in eng.workers[1:]
            )

    def test_undo_path_float_tolerant_restore(self):
        """MID_UPDATE failure exercises update-undo; the recovered state
        matches a failure-free run within fp tolerance (paper §4)."""
        ref = make_dp_engine()
        SwiftTrainer(ref, TrainerConfig(checkpoint_interval=8)).train(10)
        eng = make_dp_engine()
        SwiftTrainer(eng, TrainerConfig(checkpoint_interval=8)).train(
            10, failures=FailureSchedule(
                [FailureEvent(1, 6, FailurePhase.MID_UPDATE,
                              after_updates=2)]
            ))
        assert state_allclose(
            ref.workers[0].full_state(), eng.workers[0].full_state(),
            atol=1e-8,
        )


class TestBufferPool:
    def test_capture_copies_and_freezes(self):
        pool = BufferPool()
        src = np.arange(12.0).reshape(3, 4)
        buf = pool.capture(src)
        assert np.array_equal(buf.array, src)
        assert not np.shares_memory(buf.array, src)
        with pytest.raises(ValueError):
            buf.array[0, 0] = -1.0
        src[0, 0] = 99.0  # sender keeps mutating its own buffer
        assert buf.array[0, 0] == 0.0

    def test_release_recycles_and_reuses(self):
        pool = BufferPool()
        buf = pool.capture(np.zeros(100))
        storage = buf._storage
        buf.release()
        again = pool.capture(np.ones(100))
        assert again._storage is storage
        assert pool.stats()["hits"] == 1 and pool.stats()["recycled"] == 1

    def test_refcount_protects_shared_buffers(self):
        pool = BufferPool()
        buf = pool.capture(np.zeros(10))
        buf.retain()
        buf.release()
        assert pool.stats()["recycled"] == 0  # one holder remains
        buf.release()
        assert pool.stats()["recycled"] == 1
        with pytest.raises(ValueError):
            buf.release()

    def test_detached_release_never_recycles(self):
        pool = BufferPool()
        buf = pool.capture(np.zeros(10))
        buf.release(recycle=False)
        assert pool.stats()["recycled"] == 0

    def test_max_pooled_bytes_bounds_hoarding(self):
        pool = BufferPool(max_pooled_bytes=512)
        big = pool.capture(np.zeros(1024))
        big.release()
        assert pool.idle_bytes == 0  # over budget: dropped, not hoarded


class TestPooledTransportLogging:
    def _setup(self, pool, machines=2):
        if machines == 2:
            cluster = Cluster(2, devices_per_machine=1)
            devices = {0: cluster.device(0, 0), 1: cluster.device(1, 0)}
        else:  # both ranks on one machine: traffic is never logged
            cluster = Cluster(1, devices_per_machine=2)
            devices = {0: cluster.device(0, 0), 1: cluster.device(0, 1)}
        transport = Transport(cluster, devices, pool=pool)
        tlog = TensorLog(cluster)
        tlog.pool = pool
        tlog.attach(transport)
        return transport, tlog

    def test_log_record_shares_message_buffer(self):
        pool = BufferPool()
        transport, tlog = self._setup(pool)
        t = np.arange(6.0)
        transport.send(0, 1, t, iteration=0, microbatch=0, phase="fwd")
        msg = transport.recv(1, 0)
        record = tlog.query(1, 0, 0, "fwd")
        assert np.shares_memory(record.tensor, msg.tensor)
        assert np.array_equal(record.tensor, t)

    def test_sender_mutation_after_send_does_not_leak(self):
        pool = BufferPool()
        transport, tlog = self._setup(pool)
        t = np.ones(8)
        transport.send(0, 1, t, iteration=0, microbatch=0, phase="fwd")
        t[...] = -5.0  # sender reuses its buffer immediately
        assert np.array_equal(
            tlog.query(1, 0, 0, "fwd").tensor, np.ones(8)
        )

    def test_gc_returns_buffers_to_pool(self):
        pool = BufferPool()
        transport, tlog = self._setup(pool)
        for it in range(4):
            transport.send(0, 1, np.ones(64), iteration=it, microbatch=0,
                           phase="fwd")
            transport.recv(1, 0)
        assert pool.stats()["recycled"] == 0
        tlog.gc(4)  # checkpoint at iteration 4 truncates everything
        # recycled into quarantine: not yet allocatable (receivers may
        # still alias the views) ...
        assert pool.stats()["recycled"] == 4
        assert pool.stats()["limbo_bytes"] > 0 and pool.idle_bytes == 0
        # ... until two more checkpoints age the generations out
        tlog.gc(5)
        assert pool.idle_bytes == 0
        tlog.gc(6)
        assert pool.idle_bytes > 0
        transport.send(0, 1, np.ones(64), iteration=9, microbatch=0,
                       phase="fwd")
        assert pool.stats()["hits"] == 1

    def test_quarantine_protects_retained_recv_views(self):
        """A receiver-held view survives one gc cycle bitwise: the arena
        must not hand its storage to the next send."""
        pool = BufferPool()
        transport, tlog = self._setup(pool)
        transport.send(0, 1, np.ones((4, 4)), iteration=0, microbatch=0,
                       phase="fwd")
        kept = transport.recv(1, 0).tensor
        tlog.gc(1)  # frees the log record; storage is quarantined
        transport.send(0, 1, np.full((4, 4), 9.0), iteration=2,
                       microbatch=0, phase="fwd")
        assert np.array_equal(kept, np.ones((4, 4)))

    def test_unlogged_pooled_traffic_still_recycles(self):
        """Intra-machine messages are never logged; their buffers must
        still return to the arena — after the full two-epoch quarantine,
        so the receiver's window matches the logged-traffic contract."""
        pool = BufferPool()
        transport, tlog = self._setup(pool, machines=1)
        transport.send(0, 1, np.ones(64), iteration=0, microbatch=0,
                       phase="fwd")
        kept = transport.recv(1, 0).tensor  # refs hit zero (no log record)
        assert pool.stats()["recycled"] == 1
        tlog.gc(1)  # first checkpoint: storage still quarantined
        transport.send(0, 1, np.full(64, 9.0), iteration=2, microbatch=0,
                       phase="fwd")
        assert pool.stats()["hits"] == 0
        assert np.array_equal(kept, np.ones(64))
        transport.recv(1, 0)
        tlog.gc(3)  # second checkpoint: first buffer becomes allocatable
        transport.send(0, 1, np.ones(64), iteration=4, microbatch=0,
                       phase="fwd")
        assert pool.stats()["hits"] == 1

    def test_drop_all_releases_inflight_buffers(self):
        pool = BufferPool()
        transport, tlog = self._setup(pool)
        transport.send(0, 1, np.ones(32), iteration=0, microbatch=0,
                       phase="fwd")
        transport.drop_all()  # in-flight message dies with its iteration
        tlog.gc(1)
        assert pool.stats()["recycled"] == 1

    def test_pooled_pipeline_training_matches_unpooled(self):
        """End-to-end: logging replay recovers bitwise-identical state
        whether or not messages ride pooled buffers."""
        def run(pooled):
            eng = make_pp_engine()
            trainer = SwiftTrainer(eng, TrainerConfig(
                checkpoint_interval=6, pooled_messaging=pooled))
            trainer.train(12, failures=FailureSchedule(
                [FailureEvent(2, 8, FailurePhase.ITERATION_START)]
            ))
            return {s.stage_id: s.full_state() for s in eng.stages}

        a, b = run(True), run(False)
        assert all(state_equal(a[s], b[s]) for s in a)


class TestIncrementalTrainerCheckpoints:
    def test_dp_trainer_incremental_restores_bitwise(self):
        def run(incremental):
            eng = make_dp_engine()
            trainer = SwiftTrainer(eng, TrainerConfig(
                checkpoint_interval=3,
                incremental_checkpoints=incremental,
            ))
            trainer.train(10)
            return trainer.checkpoints.load(0)[0]

        assert state_equal(run(True), run(False))

    def test_recovery_from_incremental_checkpoint(self):
        eng = make_dp_engine()
        trainer = SwiftTrainer(eng, TrainerConfig(
            checkpoint_interval=3,
            strategy="checkpoint_only",
            incremental_checkpoints=True,
        ))
        trace = trainer.train(10, failures=FailureSchedule(
            [FailureEvent(1, 7, FailurePhase.ITERATION_START)]
        ))
        assert trace.recoveries[0].strategy == "global_checkpoint_restart"
        states = [w.full_state() for w in eng.workers]
        assert all(state_equal(states[0], s) for s in states[1:])

    def test_optimizer_dirty_report_tracks_steps(self):
        eng = make_dp_engine()
        w = eng.workers[0]
        w.clear_dirty()
        assert w.dirty_full_state_keys() == set()
        SwiftTrainer(eng, TrainerConfig(checkpoint_interval=100)).train(2)
        keys = w.dirty_full_state_keys()
        assert any(k.startswith("model/") for k in keys)
        assert any(k.endswith("::step") for k in keys)


class TestSerializationDeltas:
    def make_state(self):
        return {"w": np.arange(6.0).reshape(2, 3), "b": np.zeros(3)}

    def test_subset_save_and_overlay(self):
        s = self.make_state()
        nxt = dict(s, b=np.ones(3))
        delta = save_state_bytes(nxt, keys={"b"})
        full = save_state_bytes(nxt)
        assert len(delta) < len(full)
        assert state_equal(load_state_bytes(delta, base=s),
                           load_state_bytes(full))

    def test_unknown_delta_key_rejected(self):
        with pytest.raises(KeyError):
            save_state_bytes(self.make_state(), keys={"nope"})

    def test_state_equal_shape_mismatch_short_circuits(self):
        a = {"w": np.zeros((3, 1))}
        b = {"w": np.zeros(3)}
        assert not state_equal(a, b)
        # allclose must not silently broadcast (3,1) against (3,)
        assert not state_allclose(a, b)
