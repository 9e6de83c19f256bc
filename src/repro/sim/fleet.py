"""Fleet simulation: many jobs, one shared cluster, a failure schedule.

Extends the paper's single-job evaluation to the regime its premise comes
from — large shared busy clusters.  The simulator drives the
:class:`~repro.jobs.Scheduler` in *rounds*: each round every running job
executes one training iteration (cooperative interleaving via
``SwiftTrainer.step``), arrivals are submitted, due machine failures are
routed to the owning jobs' recovery paths, and fleet wall-clock advances
by the slowest job's iteration time (jobs run concurrently on disjoint
hardware, so the round is a BSP-style synchronization of the *simulation*,
not of the jobs themselves).

The resulting :class:`FleetReport` gives per-job and cluster-wide
throughput, goodput, queueing delay, preemption and failure counts — the
fleet-level version of the paper's Figure-8 story.

Given ``wal=``, the run is also a serve WAL.  The scheduler logs every
transition it takes (:attr:`~repro.jobs.Scheduler.events`); the simulator
adds ``init``, ``tenant``, ``submit`` and ``round`` and appends the lot at
the end of each round, so :meth:`repro.serve.ServeState.replay` of the log
reproduces the fleet's accounting.  The spare pool is the fold's own
:class:`~repro.jobs.SparePool`, on the fold's clock: its countdowns
decrement where the ``round`` event is logged, and a due repair is
reclaimed at the start of the next round.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.cluster.topology import Cluster
from repro.errors import ConfigurationError
from repro.jobs import Job, JobSpec, JobState, Scheduler, SparePool
from repro.jobs.spare import check_repair_ticks, spare_ids
from repro.obs import NULL_RECORDER, Recorder

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


class _FleetClock:
    """Adapter exposing fleet wall-clock as a ``.now`` sim clock.

    Lets a :class:`~repro.obs.TraceRecorder` timestamp fleet events on
    the fleet's own simulated timeline (``FleetSimulator.fleet_time``).
    """

    def __init__(self, fleet: "FleetSimulator"):
        self._fleet = fleet

    @property
    def now(self) -> float:
        return self._fleet.fleet_time


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
        self.spares = SparePool.configured(spares, repair_ticks)
        self.scheduler = Scheduler(self.cluster, spares=self.spares)
        self.scheduler.events += [
            ("init", {"num_machines": num_machines,
                      "devices_per_machine": devices_per_machine,
                      "spares": spares, "repair_ticks": repair_ticks,
                      "iteration_time": 1.0, "idle_time": idle_time}),
            ("tenant", {"name": FLEET_TENANT}),
        ]
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
        self.fleet_time = 0.0
        self.rounds = 0
        #: instrumentation sink: queue/running/spare gauges and a
        #: ``fleet/round`` span every round when a TraceRecorder attaches
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        if self.recorder.enabled and getattr(self.recorder, "clock", None) is None:
            self.recorder.clock = _FleetClock(self)
        #: optional serve WAL: the scheduler's own events plus the
        #: simulator's are appended every round, so
        #: ``repro.serve.ServeState.replay`` can audit the run
        self.wal = wal

    # -- the round loop -----------------------------------------------------
    def _all_terminal(self) -> bool:
        jobs = self.scheduler.jobs
        if len(jobs) < len(self.specs):
            return False
        return all(
            j.state in (JobState.COMPLETED, JobState.FAILED)
            for j in jobs.values()
        )

    def run(self) -> FleetReport:
        pending_specs = deque(self.specs)
        pending_failures = deque(self.failures)

        rec = self.recorder
        events = self.scheduler.events
        while self.rounds < self.max_rounds and not self._all_terminal():
            r = self.rounds
            round_start = self.fleet_time
            # fleet time advances by the slowest job's clock progress over
            # the WHOLE round — recovery, preemption resizes, and the
            # training step all advance a job's own clock
            marks = {
                name: job.clock.now
                for name, job in self.scheduler.jobs.items()
                if job.clock is not None
            }
            iters_at_start = {
                name: job.iteration
                for name, job in self.scheduler.jobs.items()
            }
            # 1. arrivals
            while pending_specs and pending_specs[0].arrival <= r:
                spec = pending_specs.popleft()
                self.scheduler.submit(Job(spec), now=self.fleet_time)
                rec.count("fleet/arrivals", job=spec.name)
                payload = spec.to_payload()
                payload["tenant"] = FLEET_TENANT
                events.append(("submit", {"name": spec.name,
                                          "tenant": FLEET_TENANT,
                                          "spec": payload}))
            # 2. repairs complete -> blocked jobs may resume
            due = self.spares.due()
            for machine_id in due:
                self.scheduler.reclaim(machine_id)
            if due:
                self.scheduler.unblock()
            # 3. due machine failures, routed one event at a time
            while pending_failures and pending_failures[0].round <= r:
                event = pending_failures.popleft()
                self.scheduler.handle_machine_failure(event.machine_id)
                rec.count("fleet/failures", machine=event.machine_id)
            # 4. placement (may preempt), then restoration of preemptees
            self.scheduler.schedule(now=self.fleet_time)
            self.scheduler.restore()
            # 5. every running job advances one iteration
            for job in list(self.scheduler.running):
                if job.state == JobState.RUNNING:
                    job.step()
            round_dt = max(
                (
                    job.clock.now - marks.get(name, 0.0)
                    for name, job in self.scheduler.jobs.items()
                    if job.clock is not None
                ),
                default=0.0,
            )
            charged_dt = round_dt if round_dt > 0 else self.idle_time
            self.fleet_time += charged_dt
            stepped: list[str] = []
            for name, job in self.scheduler.jobs.items():
                delta = job.iteration - iters_at_start.get(name, 0)
                stepped += [name] * max(0, delta)
            events.append(("round", {"round": r, "dt": charged_dt,
                                     "stepped": sorted(stepped)}))
            self.spares.end_round()
            # 6. completions release their gangs
            for job in list(self.scheduler.running):
                if job.done:
                    self.scheduler.finish(job, now=self.fleet_time)
            self._write_events()
            self.rounds += 1
            if rec.enabled:
                self._record_round(r, round_start)

        return self._report()

    def _write_events(self) -> None:
        """Append the round's events to the WAL (if any), then drop them."""
        if self.wal is not None:
            from repro.serve.wal import ServeEvent

            for kind, payload in self.scheduler.events:
                self.wal.append(ServeEvent(seq=self.wal.next_seq,
                                           kind=kind, payload=payload))
        self.scheduler.events.clear()

    def _record_round(self, r: int, round_start: float) -> None:
        """Per-round telemetry: the fleet gauges and the round span."""
        rec = self.recorder
        rec.span_at(
            "fleet/round", sim=round_start,
            sim_dur=self.fleet_time - round_start, round=r,
        )
        rec.gauge("fleet/queue_depth", len(self.scheduler.queue))
        rec.gauge("fleet/running_jobs", len(self.scheduler.running))
        rec.gauge("fleet/preempted_workers", self.scheduler.preempted_workers)
        if not self.spares.by_fiat:
            rec.gauge("fleet/spares_available", len(self.spares.spares))
            rec.gauge("fleet/spares_repairing", len(self.spares.repairing))
        for name, job in self.scheduler.jobs.items():
            end = (
                job.finish_time if job.finish_time is not None
                else self.fleet_time
            )
            span = max(end - job.submit_time, 1e-12)
            rec.gauge(f"job/{name}/goodput", job.samples_done / span)

    # -- reporting ----------------------------------------------------------
    def _report(self) -> FleetReport:
        report = FleetReport(rounds=self.rounds, makespan=self.fleet_time)
        for job in self.scheduler.jobs.values():
            end = (
                job.finish_time if job.finish_time is not None
                else self.fleet_time
            )
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
        report.preempted_workers = self.scheduler.preempted_workers
        report.total_failures = sum(s.machine_failures for s in report.jobs)
        report.total_recoveries = sum(s.recoveries for s in report.jobs)
        report.total_lost_iterations = sum(
            s.lost_iterations for s in report.jobs
        )
        report.spare_leases = self.scheduler.spare_leases
        delays = [
            s.queueing_delay for s in report.jobs if s.start_time is not None
        ]
        report.mean_queueing_delay = (
            sum(delays) / len(delays) if delays else 0.0
        )
        return report

