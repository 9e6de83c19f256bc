"""Cluster substrate: clock, devices, machines, storage, KV store, failures."""

import numpy as np
import pytest

from repro.cluster import (
    BandwidthModel,
    Cluster,
    FailureEvent,
    FailurePhase,
    FailureSchedule,
    GlobalStore,
    KVStore,
    LocalDisk,
    SimClock,
    pipelined_transfer_time,
)
from repro.errors import MachineFailure


class TestSimClock:
    def test_advance(self):
        clock = SimClock()
        clock.advance(2.5, "work")
        assert clock.now == 2.5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)

    def test_events_recorded_with_labels(self):
        clock = SimClock()
        clock.advance(1.0, "a")
        clock.advance(2.0, "b")
        clock.advance(3.0, "a")
        assert clock.total_time("a") == 4.0
        assert len(clock.events_labelled("b")) == 1

    def test_unlabelled_not_recorded(self):
        clock = SimClock()
        clock.advance(1.0)
        assert clock.events == []
        assert clock.now == 1.0

    def test_advance_to(self):
        clock = SimClock()
        clock.advance_to(5.0)
        clock.advance_to(3.0)  # no-op backwards
        assert clock.now == 5.0


class TestMachineAndDevice:
    def test_fail_wipes_devices(self):
        cluster = Cluster(2, devices_per_machine=2)
        dev = cluster.device(0, 0)
        dev.put("x", np.ones(4))
        cluster.fail_machine(0)
        assert not dev.alive
        with pytest.raises(MachineFailure):
            dev.get("x")

    def test_replacement_is_empty(self):
        cluster = Cluster(1, devices_per_machine=1)
        dev = cluster.device(0, 0)
        dev.put("x", np.ones(4))
        cluster.fail_machine(0)
        cluster.replace_machine(0)
        assert dev.alive
        assert "x" not in dev

    def test_cpu_store_wiped_on_failure(self):
        cluster = Cluster(1)
        m = cluster.machine(0)
        m.cpu_put("snapshot", object())
        m.fail()
        m.replace()
        assert not m.cpu_contains("snapshot")

    def test_memory_accounting(self):
        cluster = Cluster(1, device_memory=100)
        dev = cluster.device(0, 0)
        dev.put("x", np.zeros(10, dtype=np.uint8))
        assert dev.used_bytes() == 10
        assert dev.fits(90)
        assert not dev.fits(91)

    def test_alive_machine_lists(self):
        cluster = Cluster(3)
        cluster.fail_machine(1)
        assert [m.machine_id for m in cluster.alive_machines()] == [0, 2]
        assert [m.machine_id for m in cluster.failed_machines()] == [1]


class TestTransferPricing:
    def test_intra_vs_inter_machine(self):
        cluster = Cluster(2, devices_per_machine=2)
        a, b = cluster.device(0, 0), cluster.device(0, 1)
        c = cluster.device(1, 0)
        nbytes = 1e9
        assert cluster.transfer_time(nbytes, a, b) < cluster.transfer_time(
            nbytes, a, c
        )

    def test_pcie_time(self):
        cluster = Cluster(1, bandwidth=BandwidthModel(pcie=10e9))
        assert cluster.pcie_time(10e9) == pytest.approx(1.0)

    def test_latency_floor(self):
        cluster = Cluster(2)
        a, c = cluster.device(0, 0), cluster.device(1, 0)
        assert cluster.transfer_time(0, a, c) == cluster.bandwidth.latency


class TestStorage:
    def test_local_disk_roundtrip(self):
        disk = LocalDisk(write_bw=1e9, read_bw=2e9)
        wt = disk.write("k", 2e9, payload="data")
        blob, rt = disk.read("k")
        assert wt == pytest.approx(2.0)
        assert rt == pytest.approx(1.0)
        assert blob.payload == "data"

    def test_global_store_survives_failures(self):
        cluster = Cluster(2)
        cluster.global_store.upload("ckpt/1", 100, payload="state")
        cluster.fail_machine(0)
        cluster.fail_machine(1)
        blob, _ = cluster.global_store.download("ckpt/1")
        assert blob.payload == "state"

    def test_delete_prefix(self):
        store = GlobalStore()
        store.upload("log/1/a", 10)
        store.upload("log/1/b", 20)
        store.upload("log/2/a", 30)
        freed = store.delete_prefix("log/1/")
        assert freed == 30
        assert store.keys() == ["log/2/a"]

    def test_pipelined_transfer_faster_with_chunks(self):
        bws = [1e9, 2e9, 1e9]
        serial = pipelined_transfer_time(8e9, bws, num_chunks=1)
        chunked = pipelined_transfer_time(8e9, bws, num_chunks=8)
        assert chunked < serial
        # chunked cost approaches bottleneck-stage time
        assert chunked >= 8e9 / min(bws)

    def test_pipelined_transfer_validations(self):
        assert pipelined_transfer_time(0, [1e9]) == 0.0
        with pytest.raises(ValueError):
            pipelined_transfer_time(10, [1e9], num_chunks=0)


class TestKVStore:
    def test_failure_flag_protocol(self):
        kv = KVStore()
        assert not kv.failure_raised()
        kv.raise_failure(machine_id=3, iteration=42)
        assert kv.failure_raised()
        assert kv.failure_info() == {"machine_id": 3, "iteration": 42}

    def test_first_failure_wins(self):
        kv = KVStore()
        kv.raise_failure(1, 10)
        kv.raise_failure(2, 11)  # idempotent: first writer wins
        assert kv.failure_info()["machine_id"] == 1

    def test_clear(self):
        kv = KVStore()
        kv.raise_failure(1, 10)
        kv.clear_failure()
        assert not kv.failure_raised()


class TestFailures:
    def test_schedule_pop_due(self):
        sched = FailureSchedule([
            FailureEvent(0, 10, FailurePhase.FORWARD),
            FailureEvent(1, 10, FailurePhase.MID_UPDATE),
            FailureEvent(0, 20, FailurePhase.FORWARD),
        ])
        due = sched.pop_due(10, FailurePhase.FORWARD)
        assert len(due) == 1 and due[0].machine_id == 0
        assert len(sched) == 2

    def test_schedule_sorted(self):
        sched = FailureSchedule()
        sched.add(FailureEvent(0, 20))
        sched.add(FailureEvent(0, 10))
        assert sched.pending()[0].iteration == 10
