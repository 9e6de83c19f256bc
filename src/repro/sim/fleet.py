"""Fleet simulation: many jobs, one shared cluster, a failure schedule.

Extends the paper's single-job evaluation to the regime its premise comes
from — large shared busy clusters.  The fleet has no scheduler of its
own: it runs the serve control plane's decisions
(:func:`repro.serve.server.decide`) over its own
:class:`~repro.serve.ServeState` and executes every event they log on a
live :class:`~repro.cluster.Cluster` and its :class:`~repro.jobs.Job` s:

* ``place`` / ``preempt`` / ``restore`` reserve or release the slots and
  start, shrink or grow the job (an abrupt elastic scale-in, kept
  crash-consistent by update-undo, paper Section 8);
* ``crash`` fails the machine and raises each hit job's failure flag;
  ``recover`` runs the job's own Swift recovery (before it is logged);
  after ``lease``, ``reclaim`` and a recovery every machine is alive
  exactly when the fold says so;
* a job whose plan has no engine for its slots (``ConfigurationError``)
  or whose recovery is impossible (``RecoveryError``) is logged ``fail``.

Each round submits the arrivals, injects the due crashes (through
:func:`repro.serve.server.crash`, as ``ServeServer.inject_failure``
does), decides, steps every running job one training iteration
(cooperative interleaving via ``SwiftTrainer.step``), commits the jobs
that stepped and settles the ones that are done.  Fleet wall-clock
advances by the slowest job's clock: jobs run concurrently on disjoint
hardware, so the round is a BSP-style synchronization of the
*simulation*, not of the jobs themselves.

Given ``wal=``, every event is appended to it before it is folded, so
:meth:`repro.serve.ServeState.replay` of the log is the fleet's state.
The resulting :class:`FleetReport` gives per-job and cluster-wide
throughput, goodput, queueing delay, preemption and failure counts — the
fleet-level version of the paper's Figure-8 story.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.cluster.topology import Cluster
from repro.errors import ConfigurationError, RecoveryError
from repro.jobs import Job, JobSpec, JobState
from repro.jobs.spare import check_repair_ticks, spare_ids
from repro.obs import NULL_RECORDER, Recorder
from repro.serve.server import commit, crash, decide, settle
from repro.serve.state import ServeState
from repro.serve.wal import ServeEvent

__all__ = [
    "FleetFailure",
    "JobStats",
    "FleetReport",
    "FleetSimulator",
]

#: the single tenant a fleet run is recorded under in its serve WAL
FLEET_TENANT = "fleet"


@dataclass(frozen=True)
class FleetFailure:
    """One machine crash injected at the start of a fleet round."""

    round: int
    machine_id: int


@dataclass
class JobStats:
    """Per-job outcome row of the fleet report."""

    name: str
    parallelism: str
    priority: int
    state: str
    workers: int
    iterations: int
    samples: int
    submit_time: float
    start_time: float | None
    finish_time: float | None
    queueing_delay: float
    preemptions: int
    machine_failures: int
    recoveries: int
    #: simulated seconds the job spent inside recovery paths
    recovery_time: float
    #: iterations of work recovery had to recompute (0 for replication)
    lost_iterations: int
    #: useful samples per fleet-second between submission and finish
    goodput: float
    #: useful samples per fleet-second between placement and finish
    throughput: float


@dataclass
class FleetReport:
    """Everything ``repro.cli fleet`` prints."""

    jobs: list[JobStats] = field(default_factory=list)
    rounds: int = 0
    makespan: float = 0.0
    total_samples: int = 0
    #: cluster-wide useful samples per fleet-second
    cluster_goodput: float = 0.0
    total_preemptions: int = 0
    preempted_workers: int = 0
    total_failures: int = 0
    total_recoveries: int = 0
    #: fleet-wide recomputed work — the paper's recovery-cost currency
    total_lost_iterations: int = 0
    spare_leases: int = 0
    mean_queueing_delay: float = 0.0

    def format_table(self) -> str:
        lines = [
            f"{'job':<10} {'par':>3} {'prio':>4} {'state':>9} {'iters':>6} "
            f"{'queue_s':>8} {'preempt':>7} {'fails':>5} {'recov':>5} "
            f"{'goodput':>8} {'thruput':>8}"
        ]
        for j in self.jobs:
            lines.append(
                f"{j.name:<10} {j.parallelism:>3} {j.priority:>4} "
                f"{j.state:>9} {j.iterations:>6} {j.queueing_delay:>8.2f} "
                f"{j.preemptions:>7} {j.machine_failures:>5} "
                f"{j.recoveries:>5} {j.goodput:>8.1f} {j.throughput:>8.1f}"
            )
        lines += [
            "",
            f"rounds:              {self.rounds}",
            f"makespan:            {self.makespan:.2f} s",
            f"total samples:       {self.total_samples}",
            f"cluster goodput:     {self.cluster_goodput:.1f} samples/s",
            f"mean queueing delay: {self.mean_queueing_delay:.2f} s",
            f"preemption events:   {self.total_preemptions} "
            f"({self.preempted_workers} workers)",
            f"machine failures:    {self.total_failures} routed "
            f"({self.total_recoveries} recoveries, "
            f"{self.spare_leases} spare leases)",
            f"lost iterations:     {self.total_lost_iterations} recomputed",
        ]
        return "\n".join(lines)


class FleetSimulator:
    """Round-based driver for a job fleet on one shared cluster."""

    def __init__(
        self,
        specs: list[JobSpec],
        num_machines: int = 8,
        devices_per_machine: int = 4,
        num_spares: int = 1,
        repair_ticks: int = 5,
        failures: list[FleetFailure] | None = None,
        max_rounds: int = 10_000,
        idle_time: float = 0.05,
        scenario: object | None = None,
        scenario_seed: int = 0,
        trace: object | None = None,
        recorder: Recorder | None = None,
        wal: object | None = None,
    ):
        if not specs:
            raise ConfigurationError("fleet needs at least one job spec")
        if scenario is not None and trace is not None:
            raise ConfigurationError(
                "pass either scenario= or trace=, not both"
            )
        #: the sampled/replayed chaos trace driving this fleet (if any)
        self.chaos_trace = None
        if scenario is not None:
            from repro.chaos import get_scenario

            spec = get_scenario(scenario)
            # one fleet round == one training iteration per running job,
            # so the scenario horizon maps onto the busiest job's span
            horizon = max(s.arrival + s.iterations for s in specs)
            self.chaos_trace = spec.sample(
                scenario_seed, num_machines, horizon_iters=horizon
            )
        elif trace is not None:
            self.chaos_trace = trace
        if self.chaos_trace is not None:
            failures = list(failures or [])
            failures.extend(self.chaos_trace.to_fleet_failures())
        # the highest-numbered machines become hot spares
        spares = spare_ids(num_machines, num_spares)
        check_repair_ticks(repair_ticks)
        capacity = (num_machines - num_spares) * devices_per_machine
        names = set()
        for spec in specs:
            if spec.name in names:
                raise ConfigurationError(f"duplicate job name {spec.name!r}")
            names.add(spec.name)
            if spec.num_workers > capacity:
                raise ConfigurationError(
                    f"job {spec.name!r} needs a gang of {spec.num_workers} "
                    f"but schedulable capacity is only {capacity} slots"
                )
        self.specs = sorted(specs, key=lambda s: s.arrival)
        self.cluster = Cluster(num_machines, devices_per_machine=devices_per_machine)
        self._init = {"num_machines": num_machines,
                      "devices_per_machine": devices_per_machine,
                      "spares": spares, "repair_ticks": repair_ticks,
                      "iteration_time": 1.0, "idle_time": idle_time}
        for f in failures or []:
            if not 0 <= f.machine_id < num_machines:
                raise ConfigurationError(
                    f"failure targets machine {f.machine_id}, but the "
                    f"cluster has machines 0..{num_machines - 1}"
                )
        self.failures = sorted(
            failures or [], key=lambda f: (f.round, f.machine_id)
        )
        self.max_rounds = max_rounds
        self.idle_time = idle_time
        #: the fold of every event the run logged: queue, placements,
        #: spare pool, machine health, the round and the fleet clock
        self.state = ServeState()
        #: the live jobs by name, in arrival order
        self.jobs: dict[str, Job] = {}
        #: total workers taken from elastic jobs by preemption
        self.preempted_workers = 0
        #: spares leased to recoveries
        self.spare_leases = 0
        #: instrumentation sink: queue/running/spare gauges and a
        #: ``fleet/round`` span every round when a TraceRecorder attaches
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        if self.recorder.enabled and getattr(self.recorder, "clock", None) is None:
            self.recorder.clock = self
        #: optional serve WAL every event is appended to before it folds
        self.wal = wal

    @property
    def fleet_time(self) -> float:
        return self.state.fleet_time

    #: ``.now`` makes the simulator its recorder's sim clock: fleet events
    #: are timestamped on the fleet's own simulated timeline
    now = fleet_time

    @property
    def rounds(self) -> int:
        return self.state.round

    # -- the round loop -----------------------------------------------------
    def run(self) -> FleetReport:
        log, state, rec = self._log, self.state, self.recorder
        log("init", self._init)
        log("tenant", {"name": FLEET_TENANT})
        arrivals = deque(self.specs)
        crashes = deque(self.failures)
        while state.round < self.max_rounds and (
                arrivals or not state.all_done()):
            r, round_start = state.round, state.fleet_time
            # fleet time advances by the slowest job's clock progress over
            # the WHOLE round — recovery, preemption resizes, and the
            # training step all advance a job's own clock
            marks = {name: job.clock.now for name, job in self.jobs.items()
                     if job.clock is not None}
            while arrivals and arrivals[0].arrival <= r:
                spec = arrivals.popleft()
                job = self.jobs[spec.name] = Job(spec)
                job.submit_time = state.fleet_time
                payload = spec.to_payload()
                payload["tenant"] = FLEET_TENANT
                log("submit", {"name": spec.name, "tenant": FLEET_TENANT,
                               "spec": payload})
                rec.count("fleet/arrivals", job=spec.name)
            while crashes and crashes[0].round <= r:
                machine = crashes.popleft().machine_id
                crash(state, log, machine)
                rec.count("fleet/failures", machine=machine)
            decide(state, log)
            for record in state.jobs_with_status("running"):
                self.jobs[record["name"]].step()
            dt = max((job.clock.now - marks.get(name, 0.0)
                      for name, job in self.jobs.items()
                      if job.clock is not None), default=0.0)
            # an iteration counts once, the first time a job reaches it:
            # those a checkpoint restart recomputes are lost work
            stepped = [name for name, job in sorted(self.jobs.items())
                       if job.iteration > state.jobs[name]["iterations_done"]]
            commit(state, log, stepped, dt if dt > 0 else self.idle_time)
            # a job whose work is done completes with its round, before
            # the next round's crashes could hit it
            settle(state, log)
            if rec.enabled:
                self._record_round(r, round_start)
        return self._report()

    # -- executing the fold's events on the live cluster and jobs ----------
    def _log(self, kind: str, payload: dict) -> None:
        """Append to the WAL (if any), fold, then execute on the cluster.

        A recovery runs before it is logged, so one the job refuses is
        logged as its ``fail`` and never counted as a recovery.
        """
        if kind == "recover" and not self._recover(self.jobs[payload["name"]]):
            kind, payload = "fail", {"name": payload["name"],
                                     "reason": "recovery impossible"}
        event = ServeEvent(seq=self.state.last_seq + 1, kind=kind,
                           payload=payload)
        if self.wal is not None:
            self.wal.append(event)
        self.state.apply(event)
        execute = getattr(self, f"_on_{kind}", None)
        if execute is not None:
            execute(self.jobs.get(payload.get("name")), payload)

    def _on_place(self, job: Job, p: dict) -> None:
        slots = [(m, d) for m, d in p["slots"]]
        self.cluster.reserve_slots(slots, job.owner_tag)
        try:
            job.start(self.cluster, slots, now=self.fleet_time)
        except ConfigurationError as exc:
            # the plan has no engine for the slots this fleet can grant
            # (e.g. explicit replication with every replica on one machine)
            job.error = str(exc)
            self._log("fail", {"name": job.name, "reason": job.error})

    def _on_preempt(self, job: Job, p: dict) -> None:
        freed = job.shrink(len(p["slots"]))
        self.cluster.release_slots(freed, job.owner_tag)
        self.preempted_workers += len(freed)

    def _on_restore(self, job: Job, p: dict) -> None:
        slots = [(m, d) for m, d in p["slots"]]
        self.cluster.reserve_slots(slots, job.owner_tag)
        job.grow(slots)

    def _on_complete(self, job: Job, p: dict) -> None:
        self.cluster.release_owner(job.owner_tag)
        job.state = JobState.COMPLETED
        job.finish_time = self.fleet_time

    def _on_fail(self, job: Job, p: dict) -> None:
        self.cluster.release_owner(job.owner_tag)
        job.state = JobState.FAILED

    def _on_crash(self, _: None, p: dict) -> None:
        machine = p["machine"]
        self.cluster.fail_machine(machine)
        for name in p["jobs"]:
            self.jobs[name].apply_failure(machine)
            self.jobs[name].state = JobState.BLOCKED

    def _on_lease(self, _: None, p: dict) -> None:
        self.spare_leases += 1
        self._follow_health()

    def _on_reclaim(self, _: None, p: dict) -> None:
        self._follow_health()

    def _recover(self, job: Job) -> bool:
        """Run the job's Swift recovery; False if it is impossible."""
        # a recovery rebuilds what sits on the machines it sees dead, so
        # it must see every machine whose loss this job has not repaired,
        # also one a lease already brought back
        for machine in job.pending_machines:
            self.cluster.machine(machine).take_offline()
        try:
            job.recover()
            return True
        except RecoveryError:
            # e.g. no surviving replica and the recovery budget exhausted
            return False
        finally:
            self._follow_health()

    def _follow_health(self) -> None:
        """Every machine alive exactly when the fold says so.

        A recovery replaces every dead machine it sees (Appendix-B joint
        handling, written for dedicated clusters); a machine down for
        another reason — idle, a spare in repair, another job's pending
        crash — goes back offline, not resurrected for free.
        """
        for m, rec in self.state.machines.items():
            machine = self.cluster.machine(m)
            if rec["alive"] and not machine.alive:
                self.cluster.replace_machine(m)
            elif machine.alive and not rec["alive"]:
                machine.take_offline()

    def _record_round(self, r: int, round_start: float) -> None:
        """Per-round telemetry: the fleet gauges and the round span."""
        rec, state = self.recorder, self.state
        rec.span_at(
            "fleet/round", sim=round_start,
            sim_dur=self.fleet_time - round_start, round=r,
        )
        rec.gauge("fleet/queue_depth", len(state.queue))
        rec.gauge("fleet/running_jobs",
                  len(state.jobs_with_status("running")))
        rec.gauge("fleet/preempted_workers", self.preempted_workers)
        if not state.pool.by_fiat:
            rec.gauge("fleet/spares_available", len(state.pool.spares))
            rec.gauge("fleet/spares_repairing", len(state.pool.repairing))
        for name, job in self.jobs.items():
            span = max(self._end(job) - job.submit_time, 1e-12)
            rec.gauge(f"job/{name}/goodput", job.samples_done / span)

    def _end(self, job: Job) -> float:
        """The job's finish time, or the fleet clock if it has none."""
        return self.fleet_time if job.finish_time is None else job.finish_time

    # -- reporting ----------------------------------------------------------
    def _report(self) -> FleetReport:
        report = FleetReport(rounds=self.rounds, makespan=self.fleet_time)
        for job in self.jobs.values():
            end = self._end(job)
            span = max(end - job.submit_time, 1e-12)
            run_span = (
                max(end - job.start_time, 1e-12)
                if job.start_time is not None
                else None
            )
            stats = JobStats(
                name=job.name,
                parallelism=job.spec.parallelism,
                priority=job.spec.priority,
                state=job.state.value,
                workers=job.num_workers_now,
                iterations=job.iteration,
                samples=job.samples_done,
                submit_time=job.submit_time,
                start_time=job.start_time,
                finish_time=job.finish_time,
                queueing_delay=job.queueing_delay,
                preemptions=job.preemptions,
                machine_failures=job.machine_failures,
                recoveries=len(job.recoveries),
                recovery_time=job.recovery_time,
                lost_iterations=job.lost_iterations,
                goodput=job.samples_done / span,
                throughput=(
                    job.samples_done / run_span if run_span else 0.0
                ),
            )
            report.jobs.append(stats)
        report.jobs.sort(key=lambda s: (-s.priority, s.submit_time, s.name))
        report.total_samples = sum(s.samples for s in report.jobs)
        report.cluster_goodput = (
            report.total_samples / report.makespan
            if report.makespan > 0
            else 0.0
        )
        report.total_preemptions = sum(s.preemptions for s in report.jobs)
        report.preempted_workers = self.preempted_workers
        report.total_failures = sum(s.machine_failures for s in report.jobs)
        report.total_recoveries = sum(s.recoveries for s in report.jobs)
        report.total_lost_iterations = sum(
            s.lost_iterations for s in report.jobs
        )
        report.spare_leases = self.spare_leases
        delays = [
            s.queueing_delay for s in report.jobs if s.start_time is not None
        ]
        report.mean_queueing_delay = (
            sum(delays) / len(delays) if delays else 0.0
        )
        return report

