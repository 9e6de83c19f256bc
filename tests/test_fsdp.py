"""Sharded data parallelism with mirrored shards (paper Section 8)."""

import numpy as np
import pytest

from helpers import make_fsdp_engine as make_engine
from repro.cluster import Cluster, FailureEvent, FailurePhase, SimClock
from repro.core import FailureDetector, ShardedReplicationRecovery
from repro.data import ClassificationTask
from repro.errors import ConfigurationError, RecoveryError
from repro.models import make_mlp
from repro.nn import CrossEntropyLoss
from repro.optim import Adam
from repro.parallel import FSDPEngine, ShardPlan


def recovery_for(engine):
    detector = FailureDetector(engine.cluster.kvstore, engine.clock)
    return ShardedReplicationRecovery(engine, detector, engine.clock)


class TestShardPlan:
    def test_every_param_has_owner_and_mirror(self):
        sizes = {f"p{i}": 10 * (i + 1) for i in range(7)}
        plan = ShardPlan(sizes, 4, {0: 0, 1: 0, 2: 1, 3: 1})
        assert set(plan.owner) == set(sizes)
        assert set(plan.mirror) == set(sizes)

    def test_mirror_on_different_machine(self):
        sizes = {f"p{i}": 5 for i in range(8)}
        machine_of = {0: 0, 1: 0, 2: 1, 3: 1}
        plan = ShardPlan(sizes, 4, machine_of)
        for name in sizes:
            assert machine_of[plan.owner[name]] != machine_of[plan.mirror[name]]

    def test_load_balanced_by_size(self):
        sizes = {"big": 100, "a": 10, "b": 10, "c": 10}
        plan = ShardPlan(sizes, 2, {0: 0, 1: 1})
        # the big shard alone on one worker, the small ones on the other
        assert plan.owner["big"] != plan.owner["a"]
        assert plan.owner["a"] == plan.owner["b"] == plan.owner["c"]

    def test_single_machine_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardPlan({"p": 1}, 2, {0: 0, 1: 0})


class TestFSDPTraining:
    def test_loss_decreases(self):
        eng = make_engine()
        losses = [eng.run_iteration().loss for _ in range(25)]
        assert losses[-1] < losses[0]

    def test_full_params_consistent_after_iteration(self):
        eng = make_engine()
        for _ in range(3):
            eng.run_iteration()
        assert eng.full_params_consistent()

    def test_mirrors_consistent_after_iteration(self):
        eng = make_engine()
        for _ in range(3):
            eng.run_iteration()
        assert eng.mirrors_consistent()

    def test_matches_plain_data_parallel(self):
        """Sharded updates produce the same trajectory as replicated DP."""
        from helpers import make_dp_engine

        eng = make_engine()
        dp = make_dp_engine()
        # align optimizers: rebuild DP with Adam for apples-to-apples
        from repro.parallel import DataParallelEngine

        dp = DataParallelEngine(
            Cluster(2, devices_per_machine=2),
            model_factory=lambda: make_mlp(8, 16, 4, seed=7),
            opt_factory=lambda m: Adam(m, lr=0.01),
            loss_factory=CrossEntropyLoss,
            task=ClassificationTask(dim=8, num_classes=4, batch_size=16,
                                    seed=3),
            placement=[(0, 0), (0, 1), (1, 0), (1, 1)],
        )
        for _ in range(5):
            eng.run_iteration()
            dp.run_iteration()
        a = eng.workers[0].model.state_dict()
        b = dp.workers[0].model.state_dict()
        for k in a:
            assert np.allclose(a[k], b[k], atol=1e-10), k

    def test_single_machine_placement_rejected(self):
        cluster = Cluster(1, devices_per_machine=4)
        with pytest.raises(ConfigurationError):
            FSDPEngine(
                cluster,
                model_factory=lambda: make_mlp(4, 4, 2),
                opt_factory=lambda named: Adam(named, lr=0.01),
                loss_factory=CrossEntropyLoss,
                task=ClassificationTask(dim=4, num_classes=2, batch_size=8),
                placement=[(0, i) for i in range(4)],
            )


class TestShardedRecovery:
    def reference_state(self, iterations):
        eng = make_engine()
        for _ in range(iterations):
            eng.run_iteration()
        return eng.workers[0].model.state_dict()

    def run_with_failure(self, phase, after_updates=0, iterations=10,
                         fail_at=6, machine=1):
        eng = make_engine()
        recovery = recovery_for(eng)
        report = None
        while eng.iteration < iterations:
            failure = None
            if eng.iteration == fail_at and report is None:
                failure = FailureEvent(machine, fail_at, phase,
                                       after_updates=after_updates)
            result = eng.run_iteration(failure=failure)
            if result.failed:
                report = recovery.recover()
        return eng, report

    def test_forward_failure_recovers_exactly(self):
        ref = self.reference_state(10)
        eng, report = self.run_with_failure(FailurePhase.FORWARD)
        got = eng.workers[0].model.state_dict()
        assert report.strategy == "sharded_replication"
        for k in ref:
            assert np.allclose(ref[k], got[k], atol=1e-9), k

    def test_mid_update_failure_with_undo(self):
        ref = self.reference_state(10)
        eng, report = self.run_with_failure(
            FailurePhase.MID_UPDATE, after_updates=3
        )
        assert report.details["undone_params"] > 0
        got = eng.workers[0].model.state_dict()
        for k in ref:
            assert np.allclose(ref[k], got[k], atol=1e-8), k

    @pytest.mark.parametrize("extra", [0, 5])
    def test_a_budget_past_every_parameter_still_crashes(self, extra):
        """MID_UPDATE with ``after_updates`` >= the parameter count: every
        owner updates its whole shard, then the machine dies before any
        re-mirroring, and recovery undoes every update."""
        n = len(make_engine().plan.owner)
        ref = self.reference_state(10)
        eng, report = self.run_with_failure(
            FailurePhase.MID_UPDATE, after_updates=n + extra, machine=0
        )
        assert report is not None and report.failed_machines == [0]
        assert report.details["undone_params"] > 0
        got = eng.workers[0].model.state_dict()
        for k in ref:
            assert np.allclose(ref[k], got[k], atol=1e-8), k
        assert eng.mirrors_consistent()

    def test_mirrors_reestablished_after_recovery(self):
        eng, _ = self.run_with_failure(FailurePhase.FORWARD)
        assert eng.mirrors_consistent()
        assert eng.full_params_consistent()

    def test_zero_lost_iterations(self):
        _, report = self.run_with_failure(FailurePhase.FORWARD)
        assert report.lost_iterations == 0

    def test_losing_both_copies_raises(self):
        """Owner and mirror machines both die -> checkpoint fallback."""
        eng = make_engine()
        eng.run_iteration()
        eng.cluster.fail_machine(0)
        eng.cluster.fail_machine(1)
        eng.cluster.kvstore.raise_failure(0, 1)
        with pytest.raises(RecoveryError):
            recovery_for(eng).recover()

    def test_four_machine_survives_double_failure_of_unpaired(self):
        """With 4 machines, shards of machines {0,1} mirror onto {2,3}; a
        double failure of 0 and 1 is still recoverable."""
        eng = make_engine(machines=4, per_machine=1)
        for _ in range(3):
            eng.run_iteration()
        ref_eng = make_engine(machines=4, per_machine=1)
        for _ in range(6):
            ref_eng.run_iteration()
        result = eng.run_iteration(
            failure=FailureEvent(0, 3, FailurePhase.FORWARD)
        )
        assert result.failed
        eng.cluster.fail_machine(1)
        try:
            recovery_for(eng).recover()
        except RecoveryError:
            pytest.skip("shard plan paired machines 0 and 1 -> fallback")
        for _ in range(eng.iteration, 6):
            eng.run_iteration()
        a = ref_eng.workers[0].model.state_dict()
        b = eng.workers[0].model.state_dict()
        for k in a:
            assert np.allclose(a[k], b[k], atol=1e-9), k
