"""Elastic training via update-undo (paper Section 8)."""

import numpy as np
import pytest

from helpers import assert_untouched, engine_snapshot, make_dp_engine
from repro.cluster import Cluster, FailureEvent, FailurePhase
from repro.core import ElasticCoordinator, ResizeEvent
from repro.core.elastic import ElasticTrace
from repro.core.replication import UNDO_KERNEL_TIME
from repro.errors import CommunicationError, ConfigurationError, RecoveryError
from repro.utils import state_equal


def make_coordinator(machines=2, per_machine=4, workers=4):
    cluster = Cluster(machines, devices_per_machine=per_machine)
    engine = make_dp_engine(cluster, num_workers=workers, machines=machines)
    return ElasticCoordinator(engine), cluster


class TestScaleOut:
    def test_new_worker_gets_replica_state(self):
        coord, cluster = make_coordinator()
        for _ in range(3):
            coord.engine.run_iteration()
        coord.scale_out([(0, 2)])
        assert len(coord.engine.workers) == 5
        assert coord.engine.replicas_consistent()

    def test_new_worker_participates(self):
        coord, _ = make_coordinator()
        coord.engine.run_iteration()
        coord.scale_out([(1, 2), (1, 3)])
        result = coord.engine.run_iteration()
        assert result.loss is not None
        assert coord.engine.replicas_consistent()

    def test_scale_out_on_dead_machine_rejected(self):
        coord, cluster = make_coordinator()
        cluster.fail_machine(1)
        # survivors on machine 0 can still host new workers; machine 1 not
        with pytest.raises(ConfigurationError):
            coord.scale_out([(1, 2)])

    def test_clock_charged_for_broadcast(self):
        coord, _ = make_coordinator()
        coord.engine.run_iteration()
        before = coord.clock.now
        coord.scale_out([(0, 2)])
        assert coord.clock.now > before


class TestScaleIn:
    def test_graceful_departure(self):
        coord, _ = make_coordinator()
        for _ in range(2):
            coord.engine.run_iteration()
        coord.scale_in([3])
        assert len(coord.engine.workers) == 3
        assert coord.engine.replicas_consistent()
        coord.engine.run_iteration()  # training continues

    def test_ranks_recontiguated(self):
        coord, _ = make_coordinator()
        coord.scale_in([1, 2])
        assert [w.rank for w in coord.engine.workers] == [0, 1]

    def test_abrupt_departure_triggers_undo(self):
        """A preemption mid-update leaves survivors inconsistent; the
        coordinator undoes partial updates before shrinking."""
        from repro.cluster import FailureEvent, FailurePhase

        coord, _ = make_coordinator()
        coord.engine.run_iteration()
        pre = coord.engine.workers[0].model.state_dict()
        # simulate partial update then an abrupt scale-in
        event = FailureEvent(1, 1, FailurePhase.MID_UPDATE, after_updates=2)
        coord.engine.run_iteration(failure=event)
        coord.engine.cluster.replace_machine(1)  # machine comes back empty
        resize = coord.scale_in(
            [w.rank for w in coord.engine.workers if w.machine_id == 1],
            abrupt=True,
        )
        post = coord.engine.workers[0].model.state_dict()
        for k in pre:
            assert np.allclose(pre[k], post[k], atol=1e-9), k
        assert resize == UNDO_KERNEL_TIME + 0.05

    def test_undo_is_charged_only_when_something_was_undone(self):
        coord, _ = make_coordinator()
        coord.engine.run_iteration()
        assert coord.scale_in([3]) == 0.05
        assert coord.scale_in([2], abrupt=True) == 0.05

    def test_cannot_remove_everyone(self):
        coord, _ = make_coordinator()
        with pytest.raises(ConfigurationError):
            coord.scale_in([0, 1, 2, 3])


class TestElasticEdgeCases:
    """Edge cases the repro.jobs scheduler relies on."""

    def test_leave_abrupt_and_join_same_iteration(self):
        """An abrupt departure and a join in one ResizeEvent: the undo
        path runs before the newcomer receives the broadcast state."""
        coord, _ = make_coordinator()
        schedule = [
            ResizeEvent(iteration=3, leave=(3,), join=((0, 2),), abrupt=True)
        ]
        trace = coord.train(8, schedule=schedule)
        # one left, one joined: membership stays at 4 throughout
        assert trace.memberships == [4] * 8
        assert len(trace.resize_times) == 1
        assert coord.engine.replicas_consistent()
        assert all(np.isfinite(v) for v in trace.losses)
        # the run still trains: same losses as the static engine would
        static = make_dp_engine()
        static_losses = [static.run_iteration().loss for _ in range(8)]
        assert np.allclose(trace.losses, static_losses)

    def test_scale_out_after_scale_in_reranking(self):
        """scale_out after a prior scale_in must hand out fresh contiguous
        ranks on top of the re-ranked survivors."""
        coord, _ = make_coordinator()
        coord.engine.run_iteration()
        coord.scale_in([0, 2])  # survivors re-ranked to [0, 1]
        assert [w.rank for w in coord.engine.workers] == [0, 1]
        coord.scale_out([(0, 2), (1, 2)])
        assert [w.rank for w in coord.engine.workers] == [0, 1, 2, 3]
        assert coord.engine.replicas_consistent()
        result = coord.engine.run_iteration()
        assert np.isfinite(result.loss)
        assert coord.engine.replicas_consistent()


class TestScheduledElasticTraining:
    def test_membership_trace(self):
        coord, _ = make_coordinator()
        schedule = [
            ResizeEvent(iteration=3, join=(((0, 2))),) if False else
            ResizeEvent(iteration=3, join=((0, 2),)),
            ResizeEvent(iteration=6, leave=(4,)),
        ]
        trace = coord.train(10, schedule=schedule)
        assert trace.memberships[:3] == [4, 4, 4]
        assert trace.memberships[3:6] == [5, 5, 5]
        assert trace.memberships[6:] == [4, 4, 4, 4]

    def test_loss_improves_across_resizes(self):
        coord, _ = make_coordinator()
        schedule = [
            ResizeEvent(iteration=5, join=((0, 2), (0, 3))),
            ResizeEvent(iteration=12, leave=(5,)),
        ]
        trace = coord.train(25, schedule=schedule)
        assert trace.losses[-1] < trace.losses[0]
        assert len(trace.resize_times) == 2

    def test_elastic_run_matches_static_when_no_events(self):
        coord, _ = make_coordinator()
        trace = coord.train(8)
        static = make_dp_engine()
        static_losses = [static.run_iteration().loss for _ in range(8)]
        assert np.allclose(trace.losses, static_losses)

    def test_resize_preserves_training_signal(self):
        """Loss history stays finite and replicas consistent throughout."""
        coord, _ = make_coordinator()
        schedule = [ResizeEvent(iteration=i, join=((0, 2),))
                    if i == 4 else ResizeEvent(iteration=i, leave=(4,))
                    for i in (4, 8)]
        trace = coord.train(12, schedule=schedule)
        assert all(np.isfinite(v) for v in trace.losses)
        assert coord.engine.replicas_consistent()

    def test_inconsistent_resize_raises_typed_error(self, monkeypatch):
        """The post-resize check is a real check (``python -O`` strips a
        bare assert) and says which iteration and event broke it."""
        coord, _ = make_coordinator()
        monkeypatch.setattr(coord.engine, "replicas_consistent", lambda: False)
        with pytest.raises(RecoveryError, match=r"iteration 2 .*join=\(\(0, 2\),\)"):
            coord.train(4, schedule=[ResizeEvent(iteration=2, join=((0, 2),))])

    def test_consistency_check_copies_no_state(self, monkeypatch):
        """Leaves are compared in place: no ``state_dict()`` copy per key."""
        coord, _ = make_coordinator()
        for _ in range(2):
            coord.engine.run_iteration()
        skewed = {k: v + 1.0 if k == "model/0.bias" else v
                  for k, v in coord.engine.workers[0].full_state().items()}
        monkeypatch.setattr(
            type(coord.engine.workers[0].model), "state_dict",
            lambda self: pytest.fail("replicas_consistent copied the model"))
        assert coord.engine.replicas_consistent()
        coord.engine.workers[2].load_full_state(skewed)
        assert not coord.engine.replicas_consistent()


class TestElasticAgainstTheOracle:
    """The DP backward folds into one buffer whose order and divisor follow
    membership: across every kind of resize the fused engine must match
    the eager per-rank reduce bit for bit."""

    @staticmethod
    def drive(eager):
        cluster = Cluster(2, devices_per_machine=4)
        coord = ElasticCoordinator(make_dp_engine(cluster, eager=eager))
        engine, seen = coord.engine, []

        def step(failure=None):
            loss = engine.run_iteration(failure=failure).loss
            seen.append((loss, [w.full_state()
                                for w in engine.alive_workers()]))

        step()
        step()
        # abrupt scale-in: machine 1 leaves mid-update, survivors undo
        step(FailureEvent(1, 2, FailurePhase.MID_UPDATE, after_updates=2))
        cluster.replace_machine(1)
        coord.scale_in([w.rank for w in engine.workers
                        if w.machine_id == 1], abrupt=True)
        step()
        coord.scale_out([(0, 2), (1, 0), (1, 1)])     # scale-out
        step()
        coord.scale_in([1])                           # graceful scale-in
        step()
        trace = coord.train(engine.iteration + 1, [ResizeEvent(  # leave+join
            iteration=engine.iteration, leave=(0,), join=((1, 2),))])
        seen.append((trace.losses[-1],
                     [w.full_state() for w in engine.alive_workers()]))
        step()
        return seen

    def test_resizes_match_the_eager_reduce_bitwise(self):
        fused, eager = self.drive(False), self.drive(True)
        assert [len(states) for _, states in fused] == [4, 4, 2, 2, 5, 4, 4, 4]
        for (lf, sf), (le, se) in zip(fused, eager):
            assert lf == le
            assert len(sf) == len(se)
            assert all(state_equal(a, b) for a, b in zip(sf, se))

    @pytest.mark.parametrize("eager", [False, True])
    def test_a_dead_member_refuses_the_iteration_untouched(self, eager):
        engine = make_dp_engine(eager=eager)
        engine.run_iteration()
        engine.cluster.fail_machine(1)   # dead, never recovered
        before = engine_snapshot(engine)
        with pytest.raises(CommunicationError):
            engine.run_iteration()
        assert_untouched(before, engine)
