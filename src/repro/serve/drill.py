"""Chaos drills against the control plane itself.

The rest of ``repro.chaos`` kills machines under *training jobs*; this
module kills the *scheduler*.  A :class:`TrafficScript` is a
deterministic description of everything that hits the control plane —
tenant registrations, job submissions, machine failures, cluster
shrinks — keyed by scheduling round, so an uninterrupted run and a
crash-resumed run replay the identical workload.

:func:`control_plane_drill` is the control plane's acceptance
harness: run a baseline to completion, then for each of N kill points
cut the WAL after that many events — and, cycling through the cut
kinds, leave the next line out, tear it mid-byte (the ``kill -9``
signature), or write it whole without its newline — restart a server
on the cut log, and assert

1. the replayed state is **bitwise-equal** (canonical snapshot string)
   to a pure fold of the same prefix, and its ``summary()`` views are
   equal too,
2. **zero acknowledged submissions** are lost, across both restarts,
3. the resumed run finishes with the **same final state, views and
   goodput** as the uninterrupted baseline — crash recovery is
   invisible in the accounting, and
4. reopening the resumed run's WAL a second time folds to that same
   final state: whatever the first recovery left on disk is a log the
   next one reads whole.

The views compare two ways of building the state's scheduling indexes:
the resumed server builds them lazily from its replayed records, the
baseline and the prefix fold keep them event by event.  A stale index
on either side fails the drill.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError, ReproError
from repro.jobs.spec import JobSpec
from repro.serve.server import ServeConfig, ServeServer, TenantSpec
from repro.serve.state import ServeState
from repro.serve.wal import WriteAheadLog
from repro.utils.seeding import derive_seed

__all__ = [
    "TrafficScript", "run_script", "demo_config", "demo_traffic",
    "synthetic_traffic", "control_plane_drill", "DrillReport",
    "KillPointResult",
]


@dataclass(frozen=True)
class TrafficScript:
    """A deterministic, replayable workload for one control plane.

    ``submissions`` are ``(round, tenant, spec)``; ``failures`` are
    ``(round, machine, tag)`` with a unique tag per event so a resumed
    run can tell which failures the dead server already injected;
    ``shrinks`` are ``(round, [machine, ...])`` retirements.

    >>> script = demo_traffic()
    >>> len(script.tenants), len(script.submissions) > 0
    (3, True)
    """

    tenants: tuple[TenantSpec, ...] = ()
    submissions: tuple[tuple[int, str, JobSpec], ...] = ()
    failures: tuple[tuple[int, int, str], ...] = ()
    shrinks: tuple[tuple[int, tuple[int, ...]], ...] = ()

    def __post_init__(self) -> None:
        tags = [tag for _, _, tag in self.failures]
        if len(tags) != len(set(tags)) or any(not t for t in tags):
            raise ConfigurationError(
                "failure tags must be unique and non-empty"
            )
        names = [spec.name for _, _, spec in self.submissions]
        if len(names) != len(set(names)):
            raise ConfigurationError("job names must be unique")

    @property
    def last_action_round(self) -> int:
        rounds = [0]
        rounds += [r for r, _, _ in self.submissions]
        rounds += [r for r, _, _ in self.failures]
        rounds += [r for r, _ in self.shrinks]
        return max(rounds)


def run_script(server: ServeServer, script: TrafficScript,
               max_rounds: int = 10_000) -> None:
    """Drive a script to completion — from scratch *or* mid-recovery.

    Every action is guarded by a state check (tenant known? job name
    acknowledged? failure tag recorded? machine retired?), so calling
    this on a crash-recovered server skips exactly the actions the dead
    server already performed and replays the rest in the same order.

    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "wal.jsonl")
    >>> server = ServeServer(path, ServeConfig(num_machines=4,
    ...                                        devices_per_machine=2))
    >>> run_script(server, demo_traffic())
    >>> server.state.all_done()
    True
    >>> server.close()
    """
    state = server.state
    for _ in range(max_rounds):
        rnd = state.round
        if not server.mid_tick:
            # client actions run against the pre-tick state only.  A
            # server revived mid-tick must first finish the interrupted
            # tick: the dead process already ran this round's action
            # phase, and decisions that left no WAL trace (a shrink
            # skipped because the machine was occupied) must not be
            # re-decided against mid-tick state.
            for tenant in script.tenants:
                if tenant.name not in state.tenants:
                    server.register_tenant(tenant)
            for due, tenant, spec in script.submissions:
                if due <= rnd and spec.name not in state.jobs:
                    server.submit(tenant, spec)
            for due, machines in script.shrinks:
                if due <= rnd:
                    pending = [m for m in machines
                               if not state.machines[m]["retired"]]
                    if pending:
                        server.shrink_cluster(pending)
            for due, machine, tag in script.failures:
                if due <= rnd and tag not in state.failure_tags:
                    server.inject_failure(machine, tag=tag)
            if state.all_done() and rnd > script.last_action_round:
                return
        server.tick()
    raise ConfigurationError(
        f"script did not settle within {max_rounds} rounds"
    )


def demo_config() -> ServeConfig:
    """The small, *contended* geometry behind ``repro serve --demo``.

    Four schedulable machines x two devices: :func:`demo_traffic`'s
    gangs cannot all fit, so the run exercises head-of-line blocking,
    priority preemption of the elastic batch job, restoration, spare
    leases, and recovery — every event kind the WAL knows.

    >>> demo_config().num_machines
    5
    """
    return ServeConfig(num_machines=5, devices_per_machine=2,
                       num_spares=1, repair_ticks=3,
                       snapshot_interval=10)


def demo_traffic() -> TrafficScript:
    """The small three-tenant workload behind ``repro serve --demo``.

    A production tenant (double share, tight quota), a research tenant,
    and a low-priority batch tenant; elastic and pipeline jobs mixed in;
    two machine crashes from the ``drill_control_plane`` scenario
    family landing mid-run.

    >>> demo_traffic().failures
    ((4, 1, 'demo-crash-0'), (9, 2, 'demo-crash-1'))
    """
    tenants = (
        TenantSpec(name="prod", share=2.0, quota=12, priority=2),
        TenantSpec(name="research", share=1.0, quota=8, priority=1),
        TenantSpec(name="batch", share=1.0, quota=16, max_pending=4,
                   priority=0),
    )
    dp = dict(parallelism="dp", batch_size=16)
    submissions = (
        # the elastic batch job grabs the idle cluster first, so the
        # higher-priority arrivals below must *preempt* it back down
        (0, "batch", JobSpec(name="batch-etl", num_workers=6,
                             iterations=10, priority=0, elastic=True,
                             min_workers=2, **dp)),
        (1, "prod", JobSpec(name="prod-api", num_workers=4, iterations=12,
                            priority=3, **dp)),
        (1, "research", JobSpec(name="res-sweep-0", num_workers=2,
                                iterations=8, priority=1, **dp)),
        (2, "batch", JobSpec(name="batch-compact", num_workers=2,
                             iterations=6, priority=0, **dp)),
        (3, "prod", JobSpec(name="prod-retrain", num_workers=4,
                            iterations=10, priority=3, **dp)),
        (5, "research", JobSpec(name="res-pp", parallelism="pp",
                                num_workers=2, iterations=6,
                                priority=1, batch_size=16)),
        (6, "research", JobSpec(name="res-sweep-1", num_workers=2,
                                iterations=8, priority=1, **dp)),
        (8, "batch", JobSpec(name="batch-nightly", num_workers=3,
                             iterations=6, priority=0, **dp)),
    )
    # the machine-failure component comes from the registered
    # ``drill_control_plane`` scenario — one source of truth shared with
    # the rest of the chaos catalog
    from repro.chaos import get_scenario

    trace = get_scenario("drill_control_plane").sample(
        seed=0, num_machines=demo_config().num_machines
    )
    failures = tuple(
        (int(e.iteration), e.machine_id, f"demo-crash-{i}")
        for i, e in enumerate(trace.events)
    )
    return TrafficScript(tenants=tenants, submissions=submissions,
                         failures=failures)


def synthetic_traffic(
    profile: str,
    *,
    num_tenants: int = 3,
    num_jobs: int = 30,
    horizon_rounds: int = 40,
    num_machines: int = 8,
    devices_per_machine: int = 4,
    failures: int = 2,
    seed: int = 0,
) -> TrafficScript:
    """Deterministic synthetic tenant traffic for the load benchmark.

    Profiles (the shapes real training fleets see):

    * ``"bursty"`` — submissions arrive in tight bursts with quiet gaps;
    * ``"diurnal"`` — arrival intensity follows a day-shaped sinusoid;
    * ``"priority-mixed"`` — uniform arrivals, adversarial priority mix
      with elastic low-priority jobs for preemption churn.

    Same seed, same script — bit for bit.

    >>> a = synthetic_traffic("bursty", num_jobs=5, seed=3)
    >>> b = synthetic_traffic("bursty", num_jobs=5, seed=3)
    >>> a == b
    True
    """
    profiles = ("bursty", "diurnal", "priority-mixed")
    if profile not in profiles:
        raise ConfigurationError(
            f"unknown traffic profile {profile!r}; known: {profiles}"
        )
    rng = np.random.default_rng(
        derive_seed(seed, "serve", "traffic", profile)
    )
    tenants = tuple(
        TenantSpec(
            name=f"tenant-{t}",
            share=2.0 if t == 0 else 1.0,
            quota=num_machines * devices_per_machine,
            priority=num_tenants - t,
        )
        for t in range(num_tenants)
    )
    if profile == "bursty":
        arrivals, rnd = [], 0
        while len(arrivals) < num_jobs:
            burst = int(rng.integers(2, 6))
            arrivals.extend([rnd] * burst)
            rnd += int(rng.integers(3, 9))
        arrivals = arrivals[:num_jobs]
    elif profile == "diurnal":
        grid = np.arange(horizon_rounds)
        weight = 1.1 + np.sin(2 * np.pi * grid / horizon_rounds)
        weight /= weight.sum()
        arrivals = sorted(
            int(r) for r in rng.choice(grid, size=num_jobs, p=weight)
        )
    else:  # priority-mixed
        arrivals = sorted(
            int(r) for r in rng.integers(0, horizon_rounds, size=num_jobs)
        )
    submissions = []
    for i, arrival in enumerate(arrivals):
        tenant = tenants[int(rng.integers(0, num_tenants))]
        priority = int(rng.integers(0, 4)) if profile == "priority-mixed" \
            else tenant.priority
        elastic = bool(profile == "priority-mixed" and priority == 0
                       and rng.random() < 0.5)
        workers = int(rng.integers(1, 5))
        submissions.append((arrival, tenant.name, JobSpec(
            name=f"{profile}-{i}",
            parallelism="dp",
            num_workers=workers,
            iterations=int(rng.integers(4, 16)),
            priority=priority,
            elastic=elastic,
            min_workers=1,
            batch_size=16,
        )))
    horizon = max(horizon_rounds, max(arrivals) + 1)
    crash_rounds = sorted(
        int(r) for r in rng.integers(1, horizon, size=failures)
    )
    crashes = tuple(
        (r, int(rng.integers(0, num_machines)), f"{profile}-crash-{i}")
        for i, r in enumerate(crash_rounds)
    )
    return TrafficScript(tenants=tenants, submissions=tuple(submissions),
                         failures=crashes)


@dataclass(frozen=True)
class KillPointResult:
    """What one WAL cut point proved (see :func:`control_plane_drill`).

    >>> KillPointResult(events_kept=1, cut="kept",
    ...                 replay_bitwise_equal=True, acked_jobs_before=0,
    ...                 acked_jobs_lost=0, final_state_equal=True,
    ...                 reopen_equal=True, goodput=0.0).acked_jobs_lost
    0
    """

    events_kept: int
    #: what follows the kept events on disk (one of :data:`CUT_KINDS`)
    cut: str
    replay_bitwise_equal: bool
    acked_jobs_before: int
    #: acked jobs missing after the first restart or the second
    acked_jobs_lost: int
    final_state_equal: bool
    #: a second reopen of the resumed run's WAL folds to the baseline
    reopen_equal: bool
    goodput: float


@dataclass(frozen=True)
class DrillReport:
    """Aggregated verdict of a control-plane crash drill.

    >>> report = control_plane_drill(kill_points=5)
    >>> report.passed
    True
    >>> report.acked_jobs_lost
    0
    """

    baseline_events: int
    baseline_goodput: float
    results: tuple[KillPointResult, ...] = field(default_factory=tuple)

    @property
    def acked_jobs_lost(self) -> int:
        return sum(r.acked_jobs_lost for r in self.results)

    @property
    def passed(self) -> bool:
        return all(
            r.replay_bitwise_equal and r.final_state_equal
            and r.reopen_equal and r.acked_jobs_lost == 0
            for r in self.results
        )

    def format_table(self) -> str:
        rows = ["kept  cut           replay==  acked-lost  final==  "
                "reopen==  goodput"]
        for r in self.results:
            rows.append(
                f"{r.events_kept:>4}  {r.cut:<13} "
                f"{str(r.replay_bitwise_equal):<9} "
                f"{r.acked_jobs_lost:>10}  {str(r.final_state_equal):<7}  "
                f"{str(r.reopen_equal):<8}  {r.goodput:.3f}"
            )
        rows.append(
            f"baseline: {self.baseline_events} events, "
            f"goodput {self.baseline_goodput:.3f}, "
            f"{'PASS' if self.passed else 'FAIL'}"
        )
        return "\n".join(rows)


#: what a kill point leaves after its kept events: nothing, the next
#: line torn mid-byte, or the next line whole but without its newline
CUT_KINDS = ("kept", "torn", "unterminated")


def _cut_wal(source: Path, dest: Path, events_kept: int,
             cut: str) -> None:
    """Write a WAL prefix: header + N events, then the next line as
    ``cut`` says (see :data:`CUT_KINDS`)."""
    lines = source.read_text().splitlines()
    kept = lines[: events_kept + 1]  # +1: the header line
    text = "\n".join(kept) + "\n"
    if events_kept + 1 < len(lines):
        next_line = lines[events_kept + 1]
        if cut == "torn":
            text += next_line[: max(1, len(next_line) // 2)]
        elif cut == "unterminated":
            text += next_line
    dest.write_text(text)


def control_plane_drill(
    config: ServeConfig | None = None,
    script: TrafficScript | None = None,
    *,
    kill_points: int = 5,
    workdir: str | Path | None = None,
) -> DrillReport:
    """SIGKILL the control plane at N WAL offsets and prove recovery.

    See the module docstring for the four assertions each kill point
    carries.  Kill point ``i`` uses cut kind ``CUT_KINDS[i % 3]``, so
    torn-write recovery and the newline a crash cut off both recur.
    (The :class:`DrillReport` doctest runs a full drill; here just the
    shape.)

    >>> callable(control_plane_drill)
    True
    """
    config = config or demo_config()
    script = script or demo_traffic()
    workdir = Path(workdir) if workdir is not None \
        else Path(tempfile.mkdtemp(prefix="repro-serve-drill-"))
    workdir.mkdir(parents=True, exist_ok=True)

    baseline_wal = workdir / "baseline.jsonl"
    with ServeServer(baseline_wal, config, fsync=False) as baseline:
        run_script(baseline, script)
        baseline_snapshot = baseline.state.snapshot()
        baseline_summary = baseline.state.summary()
        baseline_goodput = baseline.state.goodput()
    events = WriteAheadLog.load_events(baseline_wal)
    total = len(events)
    if kill_points < 1 or total < kill_points + 2:
        raise ConfigurationError(
            f"need >= {kill_points + 2} events for {kill_points} "
            f"kill points, have {total}"
        )
    offsets = sorted({
        max(1, min(total - 1, round(total * (i + 1) / (kill_points + 1))))
        for i in range(kill_points)
    })

    results = []
    for i, kept in enumerate(offsets):
        kind = CUT_KINDS[i % len(CUT_KINDS)]
        cut = workdir / f"cut-{kept}-{kind}.jsonl"
        _cut_wal(baseline_wal, cut, kept, kind)
        expected = ServeState()
        expected.summary()  # keep its indexes through the fold below
        # a whole line is a complete event, newline or not
        for event in events[:kept + (kind == "unterminated")]:
            expected.apply(event)
        acked_before = expected.acked_jobs()
        with ServeServer(cut, config, fsync=False) as revived:
            replay_equal = (
                revived.state.snapshot() == expected.snapshot()
                and revived.state.summary() == expected.summary()
            )
            lost = sum(
                1 for name in acked_before
                if name not in revived.state.jobs
            )
            run_script(revived, script)
            final_equal = (
                revived.state.snapshot() == baseline_snapshot
                and revived.state.summary() == baseline_summary
            )
            goodput = revived.state.goodput()
            acked_after = revived.state.acked_jobs()
        try:
            with ServeServer(cut, config, fsync=False) as again:
                reopen_equal = (
                    again.state.snapshot() == baseline_snapshot
                    and again.state.summary() == baseline_summary
                )
                lost += sum(1 for name in acked_after
                            if name not in again.state.jobs)
        except ReproError:
            # the first recovery left a log the second cannot read
            reopen_equal, lost = False, lost + len(acked_after)
        results.append(KillPointResult(
            events_kept=kept,
            cut=kind,
            replay_bitwise_equal=replay_equal,
            acked_jobs_before=len(acked_before),
            acked_jobs_lost=lost,
            final_state_equal=final_equal,
            reopen_equal=reopen_equal,
            goodput=goodput,
        ))
    return DrillReport(
        baseline_events=total,
        baseline_goodput=baseline_goodput,
        results=tuple(results),
    )
