"""Transport and collective communication semantics."""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.comm import CollectiveGroup, Message, Transport
from repro.errors import CommunicationError


def make_transport(num_machines=2):
    cluster = Cluster(num_machines, devices_per_machine=1)
    devices = {i: cluster.device(i, 0) for i in range(num_machines)}
    return cluster, Transport(cluster, devices)


class TestTransport:
    def test_send_recv_fifo(self):
        _, tr = make_transport()
        tr.send(0, 1, np.array([1.0]), iteration=0, microbatch=0, phase="fwd")
        tr.send(0, 1, np.array([2.0]), iteration=0, microbatch=1, phase="fwd")
        assert tr.recv(1, 0).tensor[0] == 1.0
        assert tr.recv(1, 0).tensor[0] == 2.0

    def test_send_copies_tensor(self):
        _, tr = make_transport()
        x = np.array([1.0])
        tr.send(0, 1, x, iteration=0, microbatch=0, phase="fwd")
        x[0] = 99.0
        assert tr.recv(1, 0).tensor[0] == 1.0

    def test_send_to_dead_machine_raises(self):
        cluster, tr = make_transport()
        cluster.fail_machine(1)
        with pytest.raises(CommunicationError):
            tr.send(0, 1, np.zeros(1), iteration=0, microbatch=0, phase="fwd")

    def test_recv_empty_channel_raises(self):
        _, tr = make_transport()
        with pytest.raises(CommunicationError):
            tr.recv(1, 0)

    def test_unknown_rank_raises(self):
        _, tr = make_transport()
        with pytest.raises(CommunicationError):
            tr.send(0, 9, np.zeros(1), iteration=0, microbatch=0, phase="fwd")

    def test_taps_see_metadata(self):
        _, tr = make_transport()
        seen = []
        tr.add_tap(lambda msg, s, d: seen.append(msg))
        tr.send(0, 1, np.zeros(3), iteration=7, microbatch=2, phase="bwd")
        assert len(seen) == 1
        msg = seen[0]
        assert (msg.iteration, msg.microbatch, msg.phase) == (7, 2, "bwd")
        assert msg.nbytes == 3 * 8

    def test_seq_monotonic(self):
        _, tr = make_transport()
        seqs = []
        tr.add_tap(lambda m, s, d: seqs.append(m.seq))
        for i in range(3):
            tr.send(0, 1, np.zeros(1), iteration=0, microbatch=i, phase="fwd")
        assert seqs == sorted(seqs) and len(set(seqs)) == 3

    def test_drop_all(self):
        _, tr = make_transport()
        tr.send(0, 1, np.zeros(1), iteration=0, microbatch=0, phase="fwd")
        assert tr.drop_all() == 1
        assert tr.pending(0, 1) == 0

    def test_transfer_time_positive(self):
        _, tr = make_transport()
        t = tr.send(0, 1, np.zeros(1000), iteration=0, microbatch=0, phase="fwd")
        assert t > 0


class TestCollectives:
    def make_group(self, n=4, machines=2):
        cluster = Cluster(machines, devices_per_machine=n // machines)
        devices = {
            i: cluster.device(i // (n // machines), i % (n // machines))
            for i in range(n)
        }
        return cluster, CollectiveGroup(cluster, devices)

    def test_check_members_with_dead_member_raises(self):
        cluster, g = self.make_group()
        g.check_members(range(4))
        cluster.fail_machine(0)
        with pytest.raises(CommunicationError):
            g.check_members(range(4))

    def test_check_members_participant_mismatch(self):
        """Regression: a partial participant set must not reduce silently
        over a subset of ranks, nor a superset over ranks outside."""
        _, g = self.make_group()
        with pytest.raises(CommunicationError):
            g.check_members([0])
        with pytest.raises(CommunicationError):
            g.check_members(range(5))

    def test_slowest_link_cached(self):
        _, g = self.make_group()
        first = g._slowest_link()
        assert g._slowest_link_cache == first
        assert g._slowest_link() == first

    def test_ring_allreduce_time_formula(self):
        _, g = self.make_group(n=4, machines=2)
        nbytes = 1e9
        slowest = g._slowest_link()
        expected = 2 * 3 / 4 * nbytes / slowest
        assert g.allreduce_time(nbytes) == pytest.approx(expected)

    def test_single_member_times_are_zero(self):
        cluster = Cluster(1, devices_per_machine=1)
        g = CollectiveGroup(cluster, {0: cluster.device(0, 0)})
        assert g.allreduce_time(1e9) == 0.0
        assert g.broadcast_time(1e9) == 0.0

    def test_inter_machine_slower_than_intra(self):
        _, inter = self.make_group(n=2, machines=2)
        cluster = Cluster(1, devices_per_machine=2)
        intra = CollectiveGroup(
            cluster, {0: cluster.device(0, 0), 1: cluster.device(0, 1)}
        )
        assert inter.allreduce_time(1e9) > intra.allreduce_time(1e9)

    def test_empty_group_rejected(self):
        cluster = Cluster(1)
        with pytest.raises(ValueError):
            CollectiveGroup(cluster, {})
