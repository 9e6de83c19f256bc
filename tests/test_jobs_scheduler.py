"""Multi-job cluster scheduler: placement, preemption, failure routing."""

import numpy as np
import pytest

from repro.api import FTStrategy, demo_fleet_specs
from repro.cluster import Cluster, FailureEvent, FailurePhase, FailureSchedule
from repro.errors import ConfigurationError
from repro.jobs import Job, JobSpec, JobState, Scheduler, SparePool
from repro.jobs.spare import check_repair_ticks, spare_ids
from repro.jobs import placement
from repro.sim import FleetFailure, FleetSimulator


def dp_spec(name="a", workers=2, iterations=4, **kw):
    kw.setdefault("checkpoint_interval", 10)
    return JobSpec(name, "dp", num_workers=workers, iterations=iterations, **kw)


def pp_spec(name="p", stages=4, iterations=4, **kw):
    kw.setdefault("checkpoint_interval", 10)
    return JobSpec(name, "pp", num_workers=stages, iterations=iterations, **kw)


def run_to_completion(scheduler, max_rounds=200):
    """Drive the scheduler's running set until every job finishes."""
    for _ in range(max_rounds):
        live = [j for j in scheduler.running if j.state == JobState.RUNNING]
        if not live:
            break
        for job in live:
            job.step()
            if job.done:
                scheduler.finish(job)
    return scheduler


class TestJobSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            JobSpec("x", "mesh", num_workers=2, iterations=1)
        with pytest.raises(ConfigurationError):
            JobSpec("x", "pp", num_workers=2, iterations=1, elastic=True)
        with pytest.raises(ConfigurationError):
            JobSpec("x", "dp", num_workers=2, iterations=1, min_workers=3)
        with pytest.raises(ConfigurationError):
            JobSpec("x", "dp", num_workers=0, iterations=1)

    @pytest.mark.parametrize("parallelism, knobs, message", [
        ("pp", dict(batch_size=2, num_microbatches=4), "must cover"),
        ("dp", dict(batch_size=0), "must be >= 1"),
        ("dp", dict(num_microbatches=0), "must be >= 1"),
    ])
    def test_unplannable_on_any_placement_fails_at_submission(
        self, parallelism, knobs, message
    ):
        # Experiment.validate refuses these wherever the job lands (the
        # parent trained them on empty micro-batches: NaN losses)
        with pytest.raises(ConfigurationError, match=message):
            JobSpec("x", parallelism, num_workers=2, iterations=1, **knobs)

    def test_samples(self):
        assert dp_spec(iterations=5, batch_size=8).samples == 40


class TestPlacementCore:
    """The pure gang policy both the fleet and the control plane use."""

    def test_spread_round_robins_over_failures_then_id(self):
        free = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
        # machine 1 failed most, machines 0 and 2 tie and go by id
        assert placement.spread(free, {0: 1, 1: 3, 2: 1}, 5) == [
            (0, 0), (2, 0), (1, 0), (0, 1), (2, 1)]
        assert placement.spread(free, {0: 2, 1: 0, 2: 1}, 3) == [
            (1, 0), (2, 0), (0, 0)]

    def test_spread_takes_each_machines_slots_in_given_order(self):
        free = [(0, 3), (0, 1), (1, 2)]
        assert placement.spread(free, {0: 0, 1: 0}, 3) == [
            (0, 3), (1, 2), (0, 1)]

    def test_spread_is_none_when_short(self):
        free = [(0, 0), (1, 0)]
        assert placement.spread(free, {0: 0, 1: 0}, 3) is None
        assert placement.spread([], {}, 1) is None
        assert placement.spread(free, {0: 0, 1: 0}, 0) == []

    def test_preemption_none_when_free_plus_give_is_short(self):
        rows = [("a", 0, 0.0, 2), ("b", 1, 0.0, 1)]
        assert placement.preemption(6, 2, rows) is None
        assert placement.preemption(5, 2, rows) == [("a", 2), ("b", 1)]

    def test_preemption_lowest_priority_then_earliest_gives_first(self):
        rows = [("late", 0, 5.0, 2), ("high", 3, 0.0, 2),
                ("early", 0, 1.0, 2)]
        assert placement.preemption(6, 0, rows) == [
            ("early", 2), ("late", 2), ("high", 2)]

    def test_preemption_takes_only_what_is_needed(self):
        rows = [("a", 0, 0.0, 4), ("b", 0, 1.0, 4), ("none", 0, 0.5, 0)]
        assert placement.preemption(3, 1, rows) == [("a", 2)]
        assert placement.preemption(7, 1, rows) == [("a", 4), ("b", 2)]
        # a job that cannot give is never asked to
        assert placement.preemption(9, 1, rows) == [("a", 4), ("b", 4)]

    def test_preemption_ties_keep_the_callers_order(self):
        rows = [("x", 0, 2.0, 1), ("y", 0, 2.0, 1), ("w", 0, 2.0, 1)]
        assert placement.preemption(2, 0, rows) == [("x", 1), ("y", 1)]

    def test_restoration_order_highest_priority_then_earliest(self):
        rows = [("low", 0, 0.0), ("late", 5, 9.0), ("tie-a", 5, 1.0),
                ("tie-b", 5, 1.0)]
        assert placement.restoration_order(rows) == [
            "tie-a", "tie-b", "late", "low"]

    def test_head_of_line_usage_then_priority_then_submission(self):
        rows = [("busy-high", 0.5, 9, 0), ("idle-low", 0.0, 0, 1),
                ("idle-high-late", 0.0, 4, 3), ("idle-high", 0.0, 4, 2)]
        assert placement.head_of_line(rows) == "idle-high"
        assert placement.head_of_line(rows[:2]) == "idle-low"
        assert placement.head_of_line(rows[:1]) == "busy-high"

    def test_fleet_queue_is_submission_order_and_picks_priority(self):
        sched = Scheduler(Cluster(1, devices_per_machine=1))
        low1, high, low2 = (Job(dp_spec(n, workers=1, priority=p))
                            for n, p in (("low1", 0), ("high", 9),
                                         ("low2", 0)))
        for job in (low1, high, low2):
            sched.submit(job)
        assert sched.queue == [low1, high, low2]
        assert sched.schedule() == [high]
        assert sched.queue == [low1, low2]
        assert [kind for kind, _ in sched.events] == ["place"]


class TestPlacement:
    def test_gang_spreads_across_machines(self):
        cluster = Cluster(4, devices_per_machine=2)
        sched = Scheduler(cluster)
        job = Job(dp_spec(workers=4))
        sched.submit(job)
        assert sched.schedule() == [job]
        # one worker per machine: smallest possible failure blast radius
        assert job.machines_used() == {0, 1, 2, 3}
        assert cluster.owned_slots(job.owner_tag) == job.current_slots()

    def test_failure_aware_placement_avoids_flaky_machines(self):
        cluster = Cluster(3, devices_per_machine=2)
        cluster.fail_machine(0)
        cluster.replace_machine(0)  # repaired, but has failure history
        sched = Scheduler(cluster)
        job = Job(dp_spec(workers=2))
        sched.submit(job)
        sched.schedule()
        assert job.machines_used() == {1, 2}

    def test_gang_queues_when_cluster_full(self):
        cluster = Cluster(2, devices_per_machine=1)
        sched = Scheduler(cluster)
        big = Job(dp_spec("big", workers=2))
        late = Job(dp_spec("late", workers=2))
        sched.submit(big)
        sched.submit(late)
        assert sched.schedule() == [big]
        assert late.state == JobState.PENDING
        assert late in sched.queue
        # capacity frees when the first gang completes
        run_to_completion(sched)
        assert big.state == JobState.COMPLETED
        assert sched.schedule() == [late]

    def test_slots_released_on_finish(self):
        cluster = Cluster(2, devices_per_machine=2)
        sched = Scheduler(cluster)
        job = Job(dp_spec(workers=4, iterations=2))
        sched.submit(job)
        sched.schedule()
        assert len(cluster.free_slots()) == 0
        run_to_completion(sched)
        assert len(cluster.free_slots()) == 4


class TestPreemption:
    def make_preemption_pair(self):
        cluster = Cluster(2, devices_per_machine=4)  # 8 slots
        sched = Scheduler(cluster)
        victim = Job(dp_spec("victim", workers=6, iterations=30,
                             priority=0, elastic=True, min_workers=2))
        sched.submit(victim)
        sched.schedule()
        for _ in range(3):
            victim.step()
        return cluster, sched, victim

    def test_high_priority_job_shrinks_elastic_victim(self):
        cluster, sched, victim = self.make_preemption_pair()
        rush = Job(dp_spec("rush", workers=4, iterations=2, priority=5))
        sched.submit(rush)
        started = sched.schedule()
        assert rush in started
        assert victim.preemptions == 1
        assert len(victim.engine.workers) == 4  # 6 - 2 taken
        # crash-consistent shrink: replicas still bitwise identical
        assert victim.engine.replicas_consistent()
        # ledger agrees with reality
        assert len(cluster.owned_slots(victim.owner_tag)) == 4
        assert len(cluster.owned_slots(rush.owner_tag)) == 4

    def test_victim_keeps_training_while_shrunk(self):
        _, sched, victim = self.make_preemption_pair()
        sched.submit(Job(dp_spec("rush", workers=4, iterations=2, priority=5)))
        sched.schedule()
        before = victim.iteration
        victim.step()
        assert victim.iteration == before + 1
        assert np.isfinite(victim.trainer.trace.losses[-1])

    def test_restore_regrows_victim_after_completion(self):
        _, sched, victim = self.make_preemption_pair()
        rush = Job(dp_spec("rush", workers=4, iterations=2, priority=5))
        sched.submit(rush)
        sched.schedule()
        run_to_completion(sched, max_rounds=5)  # rush finishes fast
        assert rush.state == JobState.COMPLETED
        restored = sched.restore()
        assert restored == 2
        assert len(victim.engine.workers) == 6
        assert victim.engine.replicas_consistent()
        victim.step()
        assert np.isfinite(victim.trainer.trace.losses[-1])

    def test_equal_priority_does_not_preempt(self):
        _, sched, victim = self.make_preemption_pair()
        peer = Job(dp_spec("peer", workers=4, iterations=2, priority=0))
        sched.submit(peer)
        assert sched.schedule() == []
        assert victim.preemptions == 0
        assert peer.state == JobState.PENDING

    def test_never_shrinks_below_min_workers(self):
        cluster = Cluster(2, devices_per_machine=4)
        sched = Scheduler(cluster)
        victim = Job(dp_spec("victim", workers=8, iterations=30,
                             priority=0, elastic=True, min_workers=4))
        sched.submit(victim)
        sched.schedule()
        # needs 6 freed but only 4 are shrinkable: cannot start
        rush = Job(dp_spec("rush", workers=6, iterations=2, priority=5))
        sched.submit(rush)
        assert sched.schedule() == []
        assert victim.preemptions == 0
        assert len(victim.engine.workers) == 8


class TestFailureRouting:
    def make_disjoint_jobs(self):
        cluster = Cluster(4, devices_per_machine=1)
        sched = Scheduler(cluster)
        a = Job(dp_spec("a", workers=2, iterations=6))
        b = Job(dp_spec("b", workers=2, iterations=6, seed=9))
        sched.submit(a)
        sched.submit(b)
        sched.schedule()
        assert a.machines_used().isdisjoint(b.machines_used())
        return cluster, sched, a, b

    def test_failure_routed_to_owner_only(self):
        cluster, sched, a, b = self.make_disjoint_jobs()
        for _ in range(2):
            a.step()
            b.step()
        failed = next(iter(a.machines_used()))
        touched = sched.handle_machine_failure(failed)
        assert touched == [a]
        assert a.machine_failures == 1 and b.machine_failures == 0
        assert len(a.recoveries) == 1 and len(b.recoveries) == 0

    def test_colocated_job_unaffected_numerically(self):
        cluster, sched, a, b = self.make_disjoint_jobs()
        for _ in range(2):
            a.step()
            b.step()
        sched.handle_machine_failure(next(iter(a.machines_used())))
        run_to_completion(sched)
        # b's run is bit-identical to a solo run of the same spec
        solo = Job(dp_spec("solo", workers=2, iterations=6, seed=9))
        solo_sched = Scheduler(Cluster(4, devices_per_machine=1))
        solo_sched.submit(solo)
        solo_sched.schedule()
        run_to_completion(solo_sched)
        assert np.allclose(b.trainer.trace.losses, solo.trainer.trace.losses)

    def test_recovered_job_matches_failure_free_losses(self):
        cluster, sched, a, b = self.make_disjoint_jobs()
        for _ in range(2):
            a.step()
            b.step()
        sched.handle_machine_failure(next(iter(a.machines_used())))
        run_to_completion(sched)
        solo = Job(dp_spec("solo", workers=2, iterations=6))
        solo_sched = Scheduler(Cluster(4, devices_per_machine=1))
        solo_sched.submit(solo)
        solo_sched.schedule()
        run_to_completion(solo_sched)
        assert np.allclose(a.trainer.trace.losses, solo.trainer.trace.losses)

    def test_pp_job_failure_routes_to_logging_recovery(self):
        cluster = Cluster(5, devices_per_machine=1)
        sched = Scheduler(cluster)
        job = Job(pp_spec("pipe", stages=4, iterations=8))
        sched.submit(job)
        sched.schedule()
        for _ in range(3):
            job.step()
        sched.handle_machine_failure(next(iter(job.machines_used())))
        assert len(job.recoveries) == 1
        assert job.recoveries[0].strategy.startswith("logging")
        run_to_completion(sched)
        assert job.state == JobState.COMPLETED

    def test_shared_machine_crash_counts_once_and_recovers_both(self):
        """One hardware event on a machine shared by two jobs: a single
        failure_count tick, both owners recover, both finish."""
        cluster = Cluster(2, devices_per_machine=2)
        sched = Scheduler(cluster)
        a = Job(dp_spec("a", workers=2, iterations=6))
        b = Job(dp_spec("b", workers=2, iterations=6, seed=9))
        sched.submit(a)
        sched.submit(b)
        sched.schedule()
        # spread placement means both jobs hold a slot on machine 0
        assert 0 in a.machines_used() and 0 in b.machines_used()
        for _ in range(2):
            a.step()
            b.step()
        touched = sched.handle_machine_failure(0)
        assert set(touched) == {a, b}
        assert cluster.machine(0).failure_count == 1
        assert len(a.recoveries) == 1 and len(b.recoveries) == 1
        run_to_completion(sched)
        assert a.state == JobState.COMPLETED
        assert b.state == JobState.COMPLETED

    def test_idle_machine_failure_touches_no_job(self):
        cluster, sched, a, b = self.make_disjoint_jobs()
        # all 4 machines are used by a and b here; build a bigger cluster
        cluster2 = Cluster(3, devices_per_machine=1)
        sched2 = Scheduler(cluster2)
        j = Job(dp_spec(workers=2))
        sched2.submit(j)
        sched2.schedule()
        idle = ({0, 1, 2} - j.machines_used()).pop()
        assert sched2.handle_machine_failure(idle) == []
        assert j.machine_failures == 0
        j.step()  # unaffected


class TestPlannedStrategy:
    """A job runs what Experiment.plan() decides for the slots it got."""

    @pytest.mark.parametrize("spec, shape", [
        # the only schedulable machine holds every replica: replication
        # would lose them all with it
        (JobSpec("dp-one-box", "dp", num_workers=4, iterations=12,
                 checkpoint_interval=5),
         dict(num_machines=2, devices_per_machine=4)),
        # replicas on two machines, but AMSGrad cannot undo a partial update
        (JobSpec("dp-amsgrad", "dp", num_workers=4, iterations=12,
                 checkpoint_interval=5, optimizer="amsgrad"),
         dict(num_machines=3, devices_per_machine=2)),
    ], ids=["no_machine_level_replica", "optimizer_not_invertible"])
    def test_section3_chain_not_engine_default(self, spec, shape):
        sim = FleetSimulator(
            [spec], num_spares=1,
            failures=[FleetFailure(round=7, machine_id=0)], **shape,
        )
        report = sim.run()
        (job,) = sim.scheduler.jobs.values()
        assert report.jobs[0].state == "completed"
        assert job.trainer.strategy is FTStrategy.CHECKPOINT_ONLY
        assert [r.strategy for r in job.recoveries] == [
            "global_checkpoint_restart"
        ]
        assert job.lost_iterations == 2
        # a crash in the middle of the optimizer step recovers too
        sched = Scheduler(Cluster(shape["num_machines"] - 1,
                                  shape["devices_per_machine"]))
        job = Job(spec)
        sched.submit(job)
        sched.schedule()
        failures = FailureSchedule(
            [FailureEvent(0, 7, FailurePhase.MID_UPDATE, after_updates=1)]
        )
        while not job.done:
            job.session.step(failures)
        assert len(job.recoveries) == 1
        assert job.iteration == spec.iterations

    def test_unplannable_grant_fails_the_job_not_the_fleet(self, tmp_path):
        """Explicit replication needs a replica on a second machine; this
        fleet's only schedulable machine cannot give one."""
        from repro.serve import ServeState, WriteAheadLog

        specs = [
            JobSpec("dp-pinned", "dp", num_workers=4, iterations=12,
                    strategy="replication", priority=1),
            dp_spec("healthy", workers=4, iterations=6),
        ]
        wal = WriteAheadLog(tmp_path / "fleet.jsonl", fsync=False)
        sim = FleetSimulator(specs, num_machines=2, devices_per_machine=4,
                             num_spares=1, wal=wal)
        report = sim.run()
        wal.close()
        pinned, healthy = (sim.scheduler.jobs[s.name] for s in specs)
        assert pinned.state == JobState.FAILED and pinned.session is None
        assert "surviving replica" in pinned.error
        # its slots went back, so the job queued behind it ran
        assert healthy.state == JobState.COMPLETED
        assert healthy.iteration == 6 and healthy.start_time == 0.0
        assert sim.cluster.owners_on_machine(0) == set()
        # and the fleet's own WAL folds to the same outcome
        state = ServeState.replay(WriteAheadLog.load_events(wal.path))
        assert {n: j["status"] for n, j in state.jobs.items()} == {
            j.name: j.state for j in report.jobs
        }
        assert state.queue == []
        assert "surviving replica" in state.jobs["dp-pinned"]["reason"]

    def test_demo_fleet_jobs_run_their_plans(self):
        specs, failures = demo_fleet_specs(iterations=12)
        sim = FleetSimulator(specs, num_machines=6, devices_per_machine=4,
                             num_spares=1, failures=failures)
        sim.run()
        jobs = sim.scheduler.jobs.values()
        assert len(jobs) == len(specs)
        for job in jobs:
            assert job.trainer is job.session.trainer
            assert job.trainer.strategy == job.session.plan.strategy
        assert {j.name: j.trainer.strategy.value for j in jobs} == {
            "dp-main": "replication", "pp-chain": "logging",
            "dp-batch": "replication", "dp-rush": "replication",
            "dp-late": "replication",
        }


def finish_repair(sched, machine):
    """Count ``machine``'s repair down through the pool, then reclaim it
    as the next round's start would."""
    while machine not in sched.spares.due():
        sched.spares.end_round()
    sched.reclaim(machine)


class TestSparePool:
    def test_spares_are_not_schedulable(self):
        cluster = Cluster(3, devices_per_machine=2)
        Scheduler(cluster, spares=SparePool([2]))
        assert all(m != 2 for m, _ in cluster.free_slots())

    def test_lease_and_reclaim_cycle(self):
        pool = SparePool([2], repair_ticks=2)
        pool.lease(2)
        assert pool.spares == [] and pool.repairing == [[2, 2]]
        with pytest.raises(ValueError):
            pool.lease(2)  # pool exhausted
        pool.end_round()
        assert pool.due() == []  # 1 tick remaining
        pool.end_round()
        assert pool.due() == [2]  # repaired hardware is due back
        pool.reclaim(2)
        assert pool.spares == [2] and pool.repairing == []

    def test_recovery_consumes_one_spare_and_reclaims(self):
        cluster = Cluster(4, devices_per_machine=1)
        pool = SparePool([3], repair_ticks=1)
        sched = Scheduler(cluster, spares=pool)
        job = Job(dp_spec(workers=2, iterations=8))
        sched.submit(job)
        sched.schedule()
        job.step()
        sched.handle_machine_failure(next(iter(job.machines_used())))
        assert pool.spares == [] and sched.spare_leases == 1
        assert job.state == JobState.RUNNING  # recovered immediately
        pool.end_round()
        assert pool.due() == [3]
        sched.reclaim(3)
        assert pool.spares == [3]
        assert sched.events[-1] == ("reclaim", {"machine": 3})

    def test_empty_pool_blocks_until_reclaim(self):
        cluster = Cluster(4, devices_per_machine=1)
        pool = SparePool([3], repair_ticks=3)
        sched = Scheduler(cluster, spares=pool)
        job = Job(dp_spec(workers=2, iterations=8))
        sched.submit(job)
        sched.schedule()
        job.step()
        machines = sorted(job.machines_used())
        sched.handle_machine_failure(machines[0])  # consumes the spare
        sched.handle_machine_failure(machines[1])  # pool is empty
        assert job.state == JobState.BLOCKED
        assert job in sched.blocked
        assert sched.unblock() == []  # still no capacity
        finish_repair(sched, 3)
        resumed = sched.unblock()
        assert resumed == [job]
        assert job.state == JobState.RUNNING
        assert len(job.recoveries) == 2
        run_to_completion(sched)
        assert job.state == JobState.COMPLETED

    def test_failed_spare_goes_to_repair(self):
        cluster = Cluster(3, devices_per_machine=1)
        pool = SparePool([2], repair_ticks=1)
        sched = Scheduler(cluster, spares=pool)
        assert sched.handle_machine_failure(2) == []
        assert pool.spares == [] and pool.repairing == [[2, 1]]
        assert not cluster.machine(2).alive
        finish_repair(sched, 2)
        assert cluster.machine(2).alive

    def test_recovery_does_not_resurrect_unrelated_dead_machines(self):
        """A job's recovery replaces every failed machine it sees; broken
        machines the job does not own must stay down afterwards."""
        cluster = Cluster(6, devices_per_machine=1)
        pool = SparePool([5], repair_ticks=10)
        sched = Scheduler(cluster, spares=pool)
        job = Job(dp_spec(workers=2, iterations=8))
        sched.submit(job)
        sched.schedule()
        job.step()
        # an idle free machine dies: capacity is gone until repaired
        idle = ({0, 1, 2, 3, 4} - job.machines_used()).pop()
        sched.handle_machine_failure(idle)
        assert not cluster.machine(idle).alive
        # the job's own recovery must not revive it for free
        sched.handle_machine_failure(next(iter(job.machines_used())))
        assert job.state == JobState.RUNNING
        assert not cluster.machine(idle).alive
        assert all(m != idle for m, _ in cluster.free_slots())

    def test_blocked_on_two_machines_needs_two_leases(self):
        """A job blocked by failures on two machines resumes only after a
        replacement is leased for each (one spare per crash event)."""
        cluster = Cluster(5, devices_per_machine=1)
        pool = SparePool([4], repair_ticks=100)
        sched = Scheduler(cluster, spares=pool)
        # 3 workers on 3 machines: losing two still leaves a replica
        job = Job(dp_spec(workers=3, iterations=8))
        sched.submit(job)
        sched.schedule()
        job.step()
        pool.lease(4)  # drain the pool before any failure
        machines = sorted(job.machines_used())
        sched.handle_machine_failure(machines[0])
        sched.handle_machine_failure(machines[1])
        assert job.state == JobState.BLOCKED
        assert sorted(set(job.pending_machines)) == machines[:2]
        # one repaired spare is not enough for two broken machines
        finish_repair(sched, 4)
        assert sched.unblock() == []
        assert job.state == JobState.BLOCKED
        # the second lease completes the set and the job resumes
        finish_repair(sched, 4)
        assert sched.unblock() == [job]
        assert job.state == JobState.RUNNING
        assert sched.spare_leases == 2  # one per broken machine
        run_to_completion(sched)
        assert job.state == JobState.COMPLETED

    def test_banked_lease_is_not_bought_twice(self):
        """A repeat failure event on a machine whose replacement is
        already banked must not consume another spare."""
        cluster = Cluster(5, devices_per_machine=1)
        pool = SparePool([4], repair_ticks=100)
        sched = Scheduler(cluster, spares=pool)
        job = Job(dp_spec(workers=3, iterations=8))
        sched.submit(job)
        sched.schedule()
        job.step()
        pool.lease(4)  # drain
        m0, m1, _ = sorted(job.machines_used())
        sched.handle_machine_failure(m0)  # pool empty: blocked
        finish_repair(sched, 4)
        sched.handle_machine_failure(m1)  # lease banked, still blocked on m0
        assert sched.spare_leases == 1
        finish_repair(sched, 4)
        sched.handle_machine_failure(m1)  # repeat event: no new lease
        assert sched.spare_leases == 1
        assert job.pending_machines == [m0, m1]  # no duplicates
        # the banked m1 lease plus one m0 lease completes the set
        assert sched.unblock() == [job]
        assert sched.spare_leases == 2
        assert sched._leased_pending == set()
        run_to_completion(sched)
        assert job.state == JobState.COMPLETED

    def test_failure_on_in_repair_spare_restarts_repair(self):
        cluster = Cluster(4, devices_per_machine=1)
        pool = SparePool([3], repair_ticks=2)
        sched = Scheduler(cluster, spares=pool)
        job = Job(dp_spec(workers=2, iterations=8))
        sched.submit(job)
        sched.schedule()
        job.step()
        # first crash leases the spare; its broken hardware is in repair
        sched.handle_machine_failure(next(iter(job.machines_used())))
        assert pool.repairing == [[3, 2]]
        pool.end_round()  # 1 tick of repair done
        # a second failure event targets the in-repair spare id: the
        # repair simply restarts instead of crashing the scheduler
        assert sched.handle_machine_failure(3) == []
        assert pool.repairing == [[3, 2]]
        pool.end_round()
        assert pool.due() == []  # timer was reset: not done yet
        pool.end_round()
        assert pool.due() == [3]

    def test_second_failure_on_blocked_job_with_fresh_spare(self):
        """A failure routed to a BLOCKED job (spare newly available) must
        recover it and move it back to the running set."""
        cluster = Cluster(4, devices_per_machine=1)
        pool = SparePool([3], repair_ticks=2)
        sched = Scheduler(cluster, spares=pool)
        job = Job(dp_spec(workers=2, iterations=8))
        sched.submit(job)
        sched.schedule()
        job.step()
        machines = sorted(job.machines_used())
        sched.handle_machine_failure(machines[0])  # consumes the spare
        sched.handle_machine_failure(machines[1])  # blocks the job
        assert job.state == JobState.BLOCKED
        finish_repair(sched, 3)  # capacity is back ...
        # ... and the next failure event routes straight to the blocked job
        sched.handle_machine_failure(machines[1])
        assert job.state == JobState.RUNNING
        assert job in sched.running and job not in sched.blocked
        assert sched.unblock() == []  # no stale entries, no crash
        run_to_completion(sched)
        assert job.state == JobState.COMPLETED

    def test_bad_spare_geometry_is_refused(self):
        # the pool is unchecked; geometry is validated where a control
        # plane's configuration comes in, and spare ids come from a range
        assert spare_ids(6, 2) == [4, 5]
        for spares in (-1, 6):
            with pytest.raises(ConfigurationError, match="num_spares"):
                spare_ids(6, spares)
        for ticks in (0, -3):
            with pytest.raises(ConfigurationError, match="repair_ticks"):
                check_repair_ticks(ticks)
            with pytest.raises(ConfigurationError, match="repair_ticks"):
                FleetSimulator([dp_spec(workers=2)], num_machines=4,
                               devices_per_machine=1, num_spares=1,
                               repair_ticks=ticks)

    def test_next_spare_is_the_oldest(self):
        pool = SparePool([2, 3])
        assert pool.next_spare() == 2
        pool.lease(2)
        assert pool.next_spare() == 3
        pool.lease(3)
        assert pool.next_spare() is None


class TestFleetSimulator:
    def test_three_concurrent_jobs_with_failures(self):
        specs = [
            dp_spec("dp-a", workers=4, iterations=6, elastic=True,
                    min_workers=2, priority=1),
            pp_spec("pp-b", stages=4, iterations=6, priority=2),
            dp_spec("dp-c", workers=2, iterations=6, priority=0, seed=3),
        ]
        sim = FleetSimulator(
            specs,
            num_machines=6,
            devices_per_machine=2,
            num_spares=1,
            failures=[FleetFailure(round=2, machine_id=0)],
        )
        report = sim.run()
        assert all(j.state == "completed" for j in report.jobs)
        assert report.total_samples == sum(s.samples for s in specs)
        assert report.cluster_goodput > 0
        assert report.total_failures >= 1
        assert report.total_recoveries == report.total_failures
        assert report.spare_leases == 1
        assert report.makespan > 0

    def test_priority_arrival_preempts_in_fleet(self):
        specs = [
            dp_spec("victim", workers=6, iterations=25, elastic=True,
                    min_workers=2, priority=0),
            dp_spec("rush", workers=4, iterations=4, priority=5, arrival=3),
        ]
        sim = FleetSimulator(specs, num_machines=2, devices_per_machine=4,
                             num_spares=0)
        report = sim.run()
        by_name = {j.name: j for j in report.jobs}
        assert by_name["victim"].preemptions == 1
        assert by_name["rush"].state == "completed"
        assert by_name["victim"].state == "completed"
        # victim was restored to full size before finishing
        assert by_name["victim"].workers == 6

    def test_oversized_gang_rejected_at_construction(self):
        with pytest.raises(ConfigurationError):
            FleetSimulator(
                [dp_spec(workers=9)],
                num_machines=3,
                devices_per_machine=2,
                num_spares=1,
            )

    def test_queueing_delay_measured(self):
        specs = [
            dp_spec("first", workers=4, iterations=10),
            dp_spec("second", workers=4, iterations=4, arrival=1),
        ]
        sim = FleetSimulator(specs, num_machines=2, devices_per_machine=2,
                             num_spares=0)
        report = sim.run()
        by_name = {j.name: j for j in report.jobs}
        assert by_name["first"].queueing_delay == 0.0
        assert by_name["second"].queueing_delay > 0.0
        assert report.mean_queueing_delay > 0.0
