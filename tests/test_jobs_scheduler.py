"""Fleet scheduling: placement, preemption, failure routing, spare pool.

The fleet runs the serve control plane's decisions
(:func:`repro.serve.server.decide`) and executes them on live jobs, so
these tests drive :class:`~repro.sim.FleetSimulator` and read what it
did from its jobs, its cluster, its fold and the events it logged.
"""

import numpy as np
import pytest

from repro.api import FTStrategy, demo_fleet_specs
from repro.cluster import Cluster, FailureEvent, FailurePhase, FailureSchedule
from repro.errors import ConfigurationError
from repro.jobs import Job, JobSpec, JobState, SparePool
from repro.jobs.spare import check_repair_ticks, spare_ids
from repro.jobs import placement
from repro.sim import FleetFailure, FleetSimulator


def dp_spec(name="a", workers=2, iterations=4, **kw):
    kw.setdefault("checkpoint_interval", 10)
    return JobSpec(name, "dp", num_workers=workers, iterations=iterations, **kw)


def pp_spec(name="p", stages=4, iterations=4, **kw):
    kw.setdefault("checkpoint_interval", 10)
    return JobSpec(name, "pp", num_workers=stages, iterations=iterations, **kw)


def run_fleet(specs, crashes=(), **shape):
    """Run a fleet to the end (or to ``max_rounds``); ``crashes`` are
    ``(round, machine)`` pairs.  Returns the simulator and every event
    it logged."""
    events = []
    sim = FleetSimulator(
        specs, failures=[FleetFailure(r, m) for r, m in crashes],
        wal=events, **shape)
    sim.run()
    return sim, events


def logged(events, kind):
    return [e.payload for e in events if e.kind == kind]


def round_of(events, kind, nth=0):
    """The round the ``nth`` event of ``kind`` was logged in."""
    at = [i for i, e in enumerate(events) if e.kind == kind][nth]
    return sum(1 for e in events[:at] if e.kind == "round")


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

    def test_fleet_line_picks_priority_then_submission(self):
        sim, events = run_fleet(
            [dp_spec(n, workers=1, iterations=2, priority=p)
             for n, p in (("low1", 0), ("high", 9), ("low2", 0))],
            num_machines=1, devices_per_machine=1, num_spares=0)
        assert [p["name"] for p in logged(events, "place")] == [
            "high", "low1", "low2"]
        assert sim.jobs["high"].start_time == 0.0


class TestPlacement:
    def test_gang_spreads_across_machines(self):
        sim, _ = run_fleet([dp_spec(workers=4)], num_machines=4,
                           devices_per_machine=2, num_spares=0)
        # one worker per machine: smallest possible failure blast radius
        assert sim.jobs["a"].machines_used() == {0, 1, 2, 3}

    def test_failure_aware_placement_avoids_flaky_machines(self):
        # "first" runs on machine 0, which crashes and is replaced; the
        # next gang steers around its failure history
        sim, _ = run_fleet(
            [dp_spec("first", workers=1, iterations=2),
             dp_spec("second", workers=2, arrival=4)],
            crashes=[(1, 0)], num_machines=4, devices_per_machine=2,
            num_spares=1)
        assert sim.jobs["first"].machines_used() == {0}
        assert sim.jobs["second"].machines_used() == {1, 2}

    def test_gang_queues_when_cluster_full(self):
        sim, events = run_fleet(
            [dp_spec("big", workers=2), dp_spec("late", workers=2)],
            num_machines=2, devices_per_machine=1, num_spares=0)
        big, late = sim.jobs["big"], sim.jobs["late"]
        assert [p["name"] for p in logged(events, "place")] == [
            "big", "late"]
        # capacity frees when the first gang completes
        assert round_of(events, "place", 1) == round_of(events, "complete")
        assert late.start_time == big.finish_time > 0.0
        assert late.state == big.state == JobState.COMPLETED

    def test_slots_released_on_finish(self):
        sim, _ = run_fleet([dp_spec(workers=4, iterations=2)],
                           num_machines=2, devices_per_machine=2,
                           num_spares=0)
        assert sim.cluster.owned_slots(sim.jobs["a"].owner_tag) == []
        assert len(sim.cluster.free_slots()) == 4


class TestPreemption:
    #: the victim trains from round 0; the rush arrives at round 3
    SHAPE = dict(num_machines=2, devices_per_machine=4, num_spares=0)

    def run_pair(self, rush_priority=5, rush_workers=4, victim_workers=6,
                 min_workers=2, **kw):
        return run_fleet([
            dp_spec("victim", workers=victim_workers, iterations=30,
                    elastic=True, min_workers=min_workers),
            dp_spec("rush", workers=rush_workers, iterations=2,
                    priority=rush_priority, arrival=3),
        ], **self.SHAPE, **kw)

    def test_high_priority_job_shrinks_elastic_victim(self):
        sim, events = self.run_pair(max_rounds=4)  # stop after round 3
        victim, rush = sim.jobs["victim"], sim.jobs["rush"]
        assert rush.state == JobState.RUNNING
        assert victim.preemptions == 1
        assert len(victim.engine.workers) == 4  # 6 - 2 taken
        (preempt,) = logged(events, "preempt")
        assert (len(preempt["slots"]), preempt["for"]) == (2, "rush")
        # crash-consistent shrink: replicas still bitwise identical
        assert victim.engine.replicas_consistent()
        # ledger agrees with reality
        assert len(sim.cluster.owned_slots(victim.owner_tag)) == 4
        assert len(sim.cluster.owned_slots(rush.owner_tag)) == 4

    def test_victim_keeps_training_while_shrunk(self):
        sim, _ = self.run_pair(max_rounds=5)
        victim = sim.jobs["victim"]
        assert len(victim.engine.workers) == 4
        assert victim.iteration == 5
        assert np.isfinite(victim.trainer.trace.losses[-1])

    def test_restore_regrows_victim_after_completion(self):
        sim, events = self.run_pair()
        victim, rush = sim.jobs["victim"], sim.jobs["rush"]
        assert rush.state == victim.state == JobState.COMPLETED
        (restore,) = logged(events, "restore")
        assert len(restore["slots"]) == 2
        # restoration waits for the rush to give its gang back
        assert round_of(events, "restore") == round_of(events, "complete")
        assert len(victim.engine.workers) == 6
        assert victim.engine.replicas_consistent()
        assert np.isfinite(victim.trainer.trace.losses[-1])

    def test_equal_priority_does_not_preempt(self):
        sim, events = self.run_pair(rush_priority=0)
        assert logged(events, "preempt") == []
        assert sim.jobs["victim"].preemptions == 0
        # the peer waits for the whole gang to finish
        assert sim.jobs["rush"].start_time == sim.jobs["victim"].finish_time

    def test_never_shrinks_below_min_workers(self):
        # needs 6 freed but only 4 are shrinkable: cannot start
        sim, events = self.run_pair(rush_workers=6, victim_workers=8,
                                    min_workers=4)
        assert logged(events, "preempt") == []
        assert sim.jobs["victim"].preemptions == 0
        assert len(sim.jobs["victim"].engine.workers) == 8


class TestFailureRouting:
    #: 4 single-device machines: "a" holds 0 and 1, "b" holds 2 and 3
    SHAPE = dict(num_machines=4, devices_per_machine=1, num_spares=0)

    def disjoint_jobs(self, crashes=((2, 0),)):
        sim, events = run_fleet(
            [dp_spec("a", workers=2, iterations=6),
             dp_spec("b", workers=2, iterations=6, seed=9)],
            crashes=crashes, **self.SHAPE)
        a, b = sim.jobs["a"], sim.jobs["b"]
        assert a.machines_used().isdisjoint(b.machines_used())
        return sim, events, a, b

    @staticmethod
    def solo(spec):
        sim, _ = run_fleet([spec], **TestFailureRouting.SHAPE)
        return sim.jobs[spec.name]

    def test_failure_routed_to_owner_only(self):
        _, events, a, b = self.disjoint_jobs()
        assert [p["jobs"] for p in logged(events, "crash")] == [["a"]]
        assert a.machine_failures == 1 and b.machine_failures == 0
        assert len(a.recoveries) == 1 and len(b.recoveries) == 0

    def test_colocated_job_unaffected_numerically(self):
        _, _, _, b = self.disjoint_jobs()
        # b's run is bit-identical to a solo run of the same spec
        solo = self.solo(dp_spec("solo", workers=2, iterations=6, seed=9))
        assert np.allclose(b.trainer.trace.losses, solo.trainer.trace.losses)

    def test_recovered_job_matches_failure_free_losses(self):
        _, _, a, _ = self.disjoint_jobs()
        solo = self.solo(dp_spec("solo", workers=2, iterations=6))
        assert np.allclose(a.trainer.trace.losses, solo.trainer.trace.losses)

    def test_losing_every_replica_in_one_round_fails_the_job(self):
        """A round's crashes are recovered together: when they take every
        replica, the refused recovery is logged as the job's fail."""
        sim, events, a, b = self.disjoint_jobs(crashes=((2, 0), (2, 1)))
        assert [e.kind for e in events
                if e.payload.get("name") == "a"] == ["submit", "place", "fail"]
        assert sim.state.jobs["a"]["recoveries"] == 0
        assert logged(events, "fail") == [
            {"name": "a", "reason": "recovery impossible"}]
        assert a.state == JobState.FAILED and a.iteration == 2
        assert sim.cluster.owned_slots(a.owner_tag) == []
        assert b.state == JobState.COMPLETED

    def test_recomputed_iterations_count_once(self):
        """A checkpoint restart rolls the job back; the iterations it runs
        again are lost work, so it still trains to its target."""
        sim, events = run_fleet(
            [dp_spec("a", workers=2, iterations=8, checkpoint_interval=2,
                     strategy="checkpoint_only")],
            crashes=[(5, 0)], **self.SHAPE)
        job = sim.jobs["a"]
        assert job.lost_iterations == 1
        assert job.iteration == sim.state.jobs["a"]["iterations_done"] == 8
        assert sum(p["stepped"].count("a")
                   for p in logged(events, "round")) == 8
        assert job.state == JobState.COMPLETED

    def test_pp_job_failure_routes_to_logging_recovery(self):
        sim, _ = run_fleet([pp_spec("pipe", stages=4, iterations=8)],
                           crashes=[(3, 1)], num_machines=5,
                           devices_per_machine=1, num_spares=1)
        job = sim.jobs["pipe"]
        assert len(job.recoveries) == 1
        assert job.recoveries[0].strategy.startswith("logging")
        assert job.state == JobState.COMPLETED

    def test_shared_machine_crash_counts_once_and_recovers_both(self):
        """One hardware event on a machine shared by two jobs: a single
        failure count, both owners recover, both finish."""
        sim, events = run_fleet(
            [dp_spec("a", workers=2, iterations=6),
             dp_spec("b", workers=2, iterations=6, seed=9)],
            crashes=[(2, 0)], num_machines=2, devices_per_machine=2,
            num_spares=0)
        a, b = sim.jobs["a"], sim.jobs["b"]
        # spread placement means both jobs hold a slot on machine 0
        assert 0 in a.machines_used() and 0 in b.machines_used()
        assert [p["jobs"] for p in logged(events, "crash")] == [["a", "b"]]
        assert sim.state.machines[0]["failures"] == 1
        assert sim.cluster.machine(0).failure_count == 1
        assert len(a.recoveries) == 1 and len(b.recoveries) == 1
        assert a.state == b.state == JobState.COMPLETED

    def test_idle_machine_failure_touches_no_job(self):
        sim, events = run_fleet([dp_spec(workers=2, iterations=6)],
                                crashes=[(2, 2)], num_machines=3,
                                devices_per_machine=1, num_spares=0)
        job = sim.jobs["a"]
        assert job.machines_used() == {0, 1}
        assert logged(events, "crash")[0]["jobs"] == []
        assert job.machine_failures == 0
        assert job.state == JobState.COMPLETED
        # no job's recovery repairs it: it stays down
        assert not sim.state.machines[2]["alive"]
        assert not sim.cluster.machine(2).alive

    def test_a_job_completes_with_its_last_round(self):
        """A crash in the round after a job's last iteration finds it
        completed: it is not hit, blocked or recovered."""
        sim, events = run_fleet([dp_spec(workers=2, iterations=3),
                                 dp_spec("b", workers=1, iterations=6)],
                                crashes=[(3, 0)], num_machines=3,
                                devices_per_machine=1, num_spares=0)
        a = sim.jobs["a"]
        assert 0 in a.machines_used()
        assert round_of(events, "complete") == 3
        assert logged(events, "crash") == [
            {"machine": 0, "jobs": [], "tag": "", "spare": False}]
        assert (a.state, a.machine_failures, a.recoveries) == (
            JobState.COMPLETED, 0, [])
        assert sim.state.jobs["a"]["finish_round"] == 3


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
        (job,) = sim.jobs.values()
        assert report.jobs[0].state == "completed"
        assert job.trainer.strategy is FTStrategy.CHECKPOINT_ONLY
        assert [r.strategy for r in job.recoveries] == [
            "global_checkpoint_restart"
        ]
        assert job.lost_iterations == 2
        # a crash in the middle of the optimizer step recovers too
        cluster = Cluster(shape["num_machines"] - 1,
                          shape["devices_per_machine"])
        job = Job(spec)
        job.start(cluster, placement.spread(
            cluster.free_slots(),
            dict.fromkeys(range(cluster.num_machines), 0),
            spec.num_workers))
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
        pinned, healthy = (sim.jobs[s.name] for s in specs)
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
        jobs = sim.jobs.values()
        assert len(jobs) == len(specs)
        for job in jobs:
            assert job.trainer is job.session.trainer
            assert job.trainer.strategy == job.session.plan.strategy
        assert {j.name: j.trainer.strategy.value for j in jobs} == {
            "dp-main": "replication", "pp-chain": "logging",
            "dp-batch": "replication", "dp-rush": "replication",
            "dp-late": "replication",
        }


class TestSparePool:
    def test_spares_are_not_schedulable(self):
        sim, _ = run_fleet([dp_spec(workers=4)], num_machines=3,
                           devices_per_machine=2, num_spares=1)
        assert sim.jobs["a"].machines_used() == {0, 1}
        assert all(m != 2 for m, _ in sim.state.free_slots())

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
        sim, events = run_fleet([dp_spec(workers=2, iterations=8)],
                                crashes=[(1, 0)], num_machines=4,
                                devices_per_machine=1, num_spares=1,
                                repair_ticks=1)
        job = sim.jobs["a"]
        assert logged(events, "lease") == [{"machine": 0, "spare": 3}]
        assert sim.spare_leases == 1
        # recovered in the round of the crash, no round blocked
        assert round_of(events, "recover") == round_of(events, "crash") == 1
        assert len(job.recoveries) == 1
        # one round of repair, reclaimed at the start of the next
        assert logged(events, "reclaim") == [{"machine": 3}]
        assert round_of(events, "reclaim") == 2
        assert sim.state.pool.spares == [3]
        assert job.state == JobState.COMPLETED

    def test_empty_pool_blocks_until_reclaim(self):
        sim, events = run_fleet([dp_spec(workers=2, iterations=8)],
                                crashes=[(1, 0), (2, 1)], num_machines=4,
                                devices_per_machine=1, num_spares=1,
                                repair_ticks=3)
        job = sim.jobs["a"]
        # machine 0 takes the spare; machine 1 waits for its repair
        assert logged(events, "lease") == [{"machine": 0, "spare": 3},
                                           {"machine": 1, "spare": 3}]
        # three rounds of repair from the lease in round 1
        assert round_of(events, "lease", 1) == round_of(events, "reclaim") \
            == 4
        assert round_of(events, "recover", 1) == 4
        assert len(job.recoveries) == 2
        assert job.state == JobState.COMPLETED

    def test_failed_spare_goes_to_repair(self):
        shape = dict(num_machines=3, devices_per_machine=1, num_spares=1,
                     repair_ticks=1)
        spec, crash = dp_spec(workers=2, iterations=3), [(0, 2)]
        sim, events = run_fleet([spec], crashes=crash, max_rounds=1,
                                **shape)
        assert logged(events, "crash") == [
            {"machine": 2, "jobs": [], "tag": "", "spare": True}]
        assert sim.state.pool.spares == []
        assert sim.state.pool.repairing == [[2, 0]]
        assert not sim.cluster.machine(2).alive
        sim, _ = run_fleet([spec], crashes=crash, **shape)
        assert sim.state.pool.spares == [2]
        assert sim.cluster.machine(2).alive

    def test_recovery_does_not_resurrect_unrelated_dead_machines(self):
        """A job's recovery replaces every failed machine it sees; broken
        machines the job does not own must stay down afterwards."""
        sim, _ = run_fleet([dp_spec(workers=2, iterations=8)],
                           crashes=[(1, 2), (2, 0)], num_machines=6,
                           devices_per_machine=1, num_spares=1,
                           repair_ticks=10)
        job = sim.jobs["a"]
        assert job.machines_used() == {0, 1}
        assert len(job.recoveries) == 1
        assert job.state == JobState.COMPLETED
        # the idle machine's crash is not repaired by the job's recovery
        assert not sim.cluster.machine(2).alive
        assert all(m != 2 for m, _ in sim.state.free_slots())

    def test_blocked_on_two_machines_needs_two_leases(self):
        """A job blocked by failures on two machines resumes only after a
        replacement is leased for each (one spare per broken machine)."""
        # round 0 drains the pool (its spare dies); round 1 breaks two
        # of the job's three machines, leaving a replica
        sim, events = run_fleet([dp_spec(workers=3, iterations=8)],
                                crashes=[(0, 4), (1, 0), (1, 1)],
                                num_machines=5, devices_per_machine=1,
                                num_spares=1, repair_ticks=2)
        job = sim.jobs["a"]
        assert logged(events, "lease") == [{"machine": 0, "spare": 4},
                                           {"machine": 1, "spare": 4}]
        # one joint recovery, after the second lease
        assert round_of(events, "recover") == round_of(events, "lease", 1)
        assert round_of(events, "lease", 1) > round_of(events, "lease")
        assert len(job.recoveries) == 1
        assert job.state == JobState.COMPLETED

    def test_a_crash_after_its_lease_needs_its_own_lease(self):
        """A machine that crashes again after its lease, while its job
        still waits on another machine, is broken again: it needs a
        lease of its own, and it is alive in the cluster exactly when
        the fold says so."""
        # the pool is drained at round 0; machine 0 breaks at round 1,
        # gets the repaired spare at round 2, and breaks again at round
        # 3 while the job still waits on machine 1 (broken at round 2)
        sim, events = run_fleet([dp_spec(workers=3, iterations=8)],
                                crashes=[(0, 4), (1, 0), (2, 1), (3, 0)],
                                num_machines=5, devices_per_machine=1,
                                num_spares=1, repair_ticks=2)
        job = sim.jobs["a"]
        assert [p["machine"] for p in logged(events, "lease")] == [0, 1, 0]
        assert [p["jobs"] for p in logged(events, "crash")[1:]] == [
            ["a"], ["a"], ["a"]]
        assert len(job.recoveries) == 1
        assert job.state == JobState.COMPLETED
        assert sim.state.jobs["a"]["pending_machines"] == []
        assert all(sim.cluster.machine(m).alive == rec["alive"]
                   for m, rec in sim.state.machines.items())

    def test_failure_on_in_repair_spare_restarts_repair(self):
        # round 1: machine 0 breaks and leases spare 3 (2 rounds of
        # repair); round 2: spare 3 breaks in repair and starts over
        sim, events = run_fleet([dp_spec(workers=2, iterations=8)],
                                crashes=[(1, 0), (2, 3)], num_machines=4,
                                devices_per_machine=1, num_spares=1,
                                repair_ticks=2)
        assert logged(events, "crash")[1]["spare"] is True
        # without the restart it would be back at round 3
        assert round_of(events, "reclaim") == 4
        assert sim.jobs["a"].state == JobState.COMPLETED

    def test_crash_on_a_blocked_job_adds_to_what_it_waits_for(self):
        """A crash on a machine of a job already blocked on an empty pool
        names that job; it resumes once both machines have a lease."""
        sim, events = run_fleet([dp_spec(workers=3, iterations=8)],
                                crashes=[(1, 0), (2, 1), (3, 2)],
                                num_machines=5, devices_per_machine=1,
                                num_spares=1, repair_ticks=3)
        job = sim.jobs["a"]
        # machine 0 takes the spare; 1 blocks; 2 hits the blocked job
        assert [p["jobs"] for p in logged(events, "crash")] == [
            ["a"], ["a"], ["a"]]
        assert [p["machine"] for p in logged(events, "lease")] == [0, 1, 2]
        assert round_of(events, "recover", 1) == round_of(events, "lease", 2)
        assert len(job.recoveries) == 2
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
