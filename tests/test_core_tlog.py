"""Tensor log: taps, selective grouping, GC, overhead modes, integrity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_pp_engine
from repro.cluster import Cluster
from repro.comm import Transport
from repro.core import GroupingPlan, LoggingMode, TensorLog
from repro.errors import LogIntegrityError
from repro.parallel.schedules import ScheduleTiming
from repro.utils.pool import BufferPool


def make_setup(num_machines=3, grouping=None, mode=LoggingMode.BUBBLE):
    cluster = Cluster(num_machines, devices_per_machine=2)
    # ranks 0..2*n-1, two per machine
    devices = {}
    for m in range(num_machines):
        for d in range(2):
            devices[m * 2 + d] = cluster.device(m, d)
    transport = Transport(cluster, devices)
    tlog = TensorLog(cluster, grouping, mode=mode)
    tlog.attach(transport)
    return cluster, transport, tlog


class TestGroupingPlan:
    def test_singletons(self):
        plan = GroupingPlan.singletons([0, 1, 2])
        assert plan.num_groups == 3
        assert not plan.same_group(0, 1)

    def test_of_groups(self):
        plan = GroupingPlan.of([[0, 1], [2]])
        assert plan.same_group(0, 1)
        assert not plan.same_group(1, 2)
        assert plan.group_machines(1) == (0, 1)

    def test_unknown_machine(self):
        with pytest.raises(KeyError):
            GroupingPlan.of([[0]]).group_of(5)


class TestTap:
    def test_logs_inter_machine_only(self):
        _, tr, tlog = make_setup()
        # intra-machine: ranks 0 and 1 on machine 0
        tr.send(0, 1, np.zeros(4), iteration=0, microbatch=0, phase="fwd")
        assert tlog.total_bytes() == 0
        # inter-machine: rank 1 (machine 0) -> rank 2 (machine 1)
        tr.send(1, 2, np.zeros(4), iteration=0, microbatch=0, phase="fwd")
        assert tlog.total_bytes() == 32

    def test_selective_grouping_skips_intra_group(self):
        plan = GroupingPlan.of([[0, 1], [2]])
        _, tr, tlog = make_setup(grouping=plan)
        tr.send(1, 2, np.zeros(4), iteration=0, microbatch=0, phase="fwd")  # m0 -> m1
        assert tlog.total_bytes() == 0  # same group
        tr.send(3, 4, np.zeros(4), iteration=0, microbatch=0, phase="fwd")  # m1 -> m2
        assert tlog.total_bytes() == 32  # crosses the group boundary

    def test_query_returns_the_logged_tensor(self):
        _, tr, tlog = make_setup()
        payload = np.arange(5.0)
        tr.send(1, 2, payload, iteration=3, microbatch=1, phase="bwd")
        rec = tlog.query(2, 3, 1, "bwd")
        assert np.array_equal(rec.tensor, payload)
        assert rec.sender_machine == 0 and rec.receiver_machine == 1

    def test_chunks_sharing_a_rank_keep_separate_records(self):
        """Interleaved schedules address several model chunks to one
        rank; the log is keyed by the receiving chunk, so they coexist."""
        _, tr, tlog = make_setup()
        for chunk in (2, 8):  # both hosted on rank 2
            tr.send(1, 2, np.full(3, float(chunk)), iteration=0,
                    microbatch=0, phase="fwd", dst_chunk=chunk)
        for chunk in (2, 8):
            rec = tlog.query(chunk, 0, 0, "fwd")
            assert rec.receiver_stage == 2
            assert np.array_equal(rec.tensor, np.full(3, float(chunk)))

    def test_missing_record_raises_integrity_error(self):
        _, _, tlog = make_setup()
        with pytest.raises(LogIntegrityError):
            tlog.query(0, 0, 0, "fwd")

    def test_record_is_a_copy(self):
        _, tr, tlog = make_setup()
        x = np.ones(3)
        tr.send(1, 2, x, iteration=0, microbatch=0, phase="fwd")
        x[...] = 7
        assert np.array_equal(tlog.query(2, 0, 0, "fwd").tensor, np.ones(3))


class TestLifecycle:
    def test_gc_bounds_storage_by_checkpoint(self):
        _, tr, tlog = make_setup()
        for it in range(4):
            tr.send(1, 2, np.zeros(8), iteration=it, microbatch=0, phase="fwd")
        freed = tlog.gc(checkpoint_iteration=2)
        assert freed == 2 * 64
        assert not tlog.has(2, 0, 0, "fwd")
        assert tlog.has(2, 2, 0, "fwd")

    def test_drop_machine_removes_its_records(self):
        _, tr, tlog = make_setup()
        tr.send(1, 2, np.zeros(4), iteration=0, microbatch=0, phase="fwd")  # m0 logs
        tr.send(3, 4, np.zeros(4), iteration=0, microbatch=0, phase="fwd")  # m1 logs
        dropped = tlog.drop_machine(0)
        assert dropped == 1
        assert not tlog.has(2, 0, 0, "fwd")
        assert tlog.has(4, 0, 0, "fwd")

    def test_bytes_per_iteration_history(self):
        _, tr, tlog = make_setup()
        tr.send(1, 2, np.zeros(4), iteration=0, microbatch=0, phase="fwd")
        tr.send(1, 2, np.zeros(4), iteration=0, microbatch=1, phase="fwd")
        tr.send(1, 2, np.zeros(4), iteration=1, microbatch=0, phase="fwd")
        assert tlog.bytes_per_iteration[0] == 64
        assert tlog.bytes_per_iteration[1] == 32

    def test_upload_bytes_excludes_machine(self):
        _, tr, tlog = make_setup()
        tr.send(1, 2, np.zeros(4), iteration=0, microbatch=0, phase="fwd")
        tr.send(3, 4, np.zeros(4), iteration=0, microbatch=0, phase="fwd")
        assert tlog.upload_bytes_for(range(0, 1), exclude_machine=0) == 32
        assert tlog.upload_bytes_for(range(0, 1), exclude_machine=-1) == 64

    @settings(max_examples=80, deadline=None)
    @given(
        ops=st.lists(st.one_of(
            st.tuples(st.just("tap"), st.integers(0, 5), st.integers(0, 3),
                      st.integers(0, 1), st.integers(1, 6)),
            st.tuples(st.just("gc"), st.integers(0, 4)),
            st.tuples(st.just("drop"), st.integers(0, 2)),
        ), max_size=40),
        pooled=st.booleans(),
        precision=st.sampled_from(["full", "fp16"]),
    )
    def test_running_total_is_the_sum_over_records(self, ops, pooled,
                                                   precision):
        cluster = Cluster(3, devices_per_machine=2)
        pool = BufferPool() if pooled else None
        tr = Transport(cluster, {m * 2 + d: cluster.device(m, d)
                                 for m in range(3) for d in range(2)},
                       pool=pool)
        tlog = TensorLog(cluster, precision=precision)
        tlog.pool = pool
        tlog.attach(tr)
        for op, *args in ops:
            if op == "tap":
                # to the next machine's first rank, so always logged; two
                # senders share each receiver and a repeated (receiver,
                # iteration, micro-batch) overwrites, possibly resized
                src, it, mb, n = args
                tr.send(src, (src // 2 + 1) % 3 * 2, np.ones(n),
                        iteration=it, microbatch=mb, phase="fwd")
            elif op == "gc":
                tlog.gc(args[0])
            else:
                tlog.drop_machine(args[0])
            assert tlog.total_bytes() == sum(
                r.nbytes for r in tlog._index.values())


class TestOverheadModes:
    def fake_timing(self, bubble=1.0):
        return ScheduleTiming(op_times={}, stage_finish=[1.0],
                              stage_bubble=[bubble])

    def charge(self, mode, nbytes, bubble):
        cluster = Cluster(2, devices_per_machine=1)
        tlog = TensorLog(cluster, mode=mode)
        tlog._iter_bytes_by_stage[0] = nbytes
        hook = tlog.make_overhead_hook()
        label, seconds = hook(self.fake_timing(bubble))
        assert label == "logging"
        return seconds

    def test_sync_charges_full_copy(self):
        pcie = Cluster(1).bandwidth.pcie
        assert self.charge(LoggingMode.SYNC, int(pcie), 10.0) == pytest.approx(1.0)

    def test_bubble_mode_free_when_copy_fits(self):
        pcie = Cluster(1).bandwidth.pcie
        assert self.charge(LoggingMode.BUBBLE, int(pcie * 0.5), 1.0) == 0.0

    def test_bubble_mode_charges_spill(self):
        pcie = Cluster(1).bandwidth.pcie
        spill = self.charge(LoggingMode.BUBBLE, int(pcie * 2), 0.5)
        assert spill == pytest.approx(1.5)

    def test_async_between_sync_and_bubble(self):
        pcie = Cluster(1).bandwidth.pcie
        nbytes = int(pcie)  # 1s copy, fits in bubble
        sync = self.charge(LoggingMode.SYNC, nbytes, 10.0)
        asyn = self.charge(LoggingMode.ASYNC, nbytes, 10.0)
        bub = self.charge(LoggingMode.BUBBLE, nbytes, 10.0)
        assert bub < asyn < sync

    def test_hook_resets_counters(self):
        cluster = Cluster(2, devices_per_machine=1)
        tlog = TensorLog(cluster, mode=LoggingMode.SYNC)
        tlog._iter_bytes_by_stage[0] = 100
        hook = tlog.make_overhead_hook()
        hook(self.fake_timing())
        _, second = hook(self.fake_timing())
        assert second == 0.0


class TestEngineIntegration:
    def test_pipeline_logs_only_cross_machine_edges(self):
        eng = make_pp_engine(num_stages=4, stages_per_machine=2)
        tlog = TensorLog(eng.cluster)
        tlog.attach(eng.transport)
        eng.run_iteration()
        # stages 0,1 on machine 0; 2,3 on machine 1: only edge 1<->2 crosses
        m = eng.num_microbatches
        for mb in range(m):
            assert tlog.has(2, 0, mb, "fwd")
            assert tlog.has(1, 0, mb, "bwd")
            assert not tlog.has(1, 0, mb, "fwd")
            assert not tlog.has(3, 0, mb, "bwd")

    def test_logged_volume_matches_formula(self):
        eng = make_pp_engine()
        tlog = TensorLog(eng.cluster)
        tlog.attach(eng.transport)
        eng.run_iteration()
        # 3 inter-machine boundaries x m x (fwd act + bwd grad); the bwd
        # gradient entering a stage has the shape of that stage's input,
        # which equals the upstream activation shape, so each boundary
        # carries 2x the activation bytes
        m = eng.num_microbatches
        expected = 0
        xs, _ = eng.microbatches(0)
        h = xs[0]
        for sid in range(3):
            h = eng.stages[sid].model(h)
            expected += m * 2 * int(np.prod(h.shape)) * 8
        assert tlog.bytes_per_iteration[0] == expected
