"""ServeServer: the crash-recoverable multi-tenant control plane.

The server is deliberately boring: it is a **pure decision function**
over :class:`~repro.serve.state.ServeState`.  Every transition follows
the same three-step discipline::

    event = decide(state)          # pure function of current state
    wal.append(event)              # durable (fsync) BEFORE anything else
    state.apply(event)             # state = fold(log), always

Because decisions read only the state and the state is a fold over the
log, a server restarted from any WAL prefix re-derives *exactly* the
events the dead process would have written next — crash recovery is
replay, never reconciliation.  That is the paper's thesis applied to the
scheduler itself.

The decisions are module functions over a state and a log function:
:func:`decide` (reclaim, recover, :func:`settle`, shed, place,
restore), :func:`commit` (the closing ``round`` event) and
:func:`crash`.  The server runs them through its WAL;
:class:`~repro.sim.FleetSimulator` runs the same ones over its own fold
and executes each event on a live cluster, so there is one scheduler.
Gang placement goes through the pure functions of
:mod:`repro.jobs.placement`: failure-aware spread,
priority preemption of elastic jobs, restoration once the queue is
empty, and a head of line chosen by weighted fair share across tenants.
Spare-machine leases and reclaims are decided from the queries of the
state's :class:`~repro.jobs.SparePool` and folded back into it.
Admission control enforces per-tenant worker quotas and pending caps;
when the cluster shrinks (``retire``) the queue is gracefully degraded
by shedding jobs that can never fit — lowest tenant priority first —
instead of deadlocking the head of the queue.

Checkpoint-storage writes (periodic state snapshots to the
:class:`~repro.cluster.GlobalStore`) ride through outage windows via
bounded :func:`~repro.serve.retry.retry_call` with deterministic
backoff; the snapshot is a fast-path optimization, the WAL is the truth,
so exhausted retries degrade to a telemetry event rather than an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.cluster.storage import GlobalStore
from repro.errors import ConfigurationError, StorageError
from repro.jobs.placement import (
    head_of_line,
    preemption,
    restoration_order,
    spread,
)
from repro.jobs.spare import check_repair_ticks, spare_ids
from repro.jobs.spec import JobSpec
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.serve.retry import BackoffPolicy, retry_call
from repro.serve.segments import open_wal
from repro.serve.state import ServeState
from repro.serve.wal import ServeEvent

__all__ = ["TenantSpec", "ServeConfig", "ServeServer",
           "decide", "settle", "commit", "crash"]

#: event kinds only ever emitted inside :meth:`ServeServer.tick` —
#: disjoint from the client-op kinds (tenant/submit/reject/crash/retire),
#: so a WAL ending on one of these means the writer died mid-tick
_TICK_KINDS = frozenset({
    "complete", "reclaim", "lease", "recover",
    "shed", "place", "preempt", "restore",
})

#: the ``serve/*`` counter each logged event kind bumps
_COUNTERS = {
    "submit": "serve/submitted", "reject": "serve/rejected",
    "crash": "serve/machine_failures", "recover": "serve/recoveries",
    "complete": "serve/completed", "shed": "serve/shed",
    "place": "serve/placed", "preempt": "serve/preemptions",
}


@dataclass(frozen=True)
class TenantSpec:
    """Admission-control contract for one tenant.

    ``share`` weighs fair-share ordering (2.0 gets twice the cluster of
    1.0 under contention); ``quota`` caps the tenant's total requested
    workers across active jobs; ``max_pending`` caps its queue depth;
    ``priority`` breaks shedding order when the cluster shrinks (lower
    priority sheds first).

    >>> TenantSpec(name="prod", share=2.0, quota=12).name
    'prod'
    """

    name: str
    share: float = 1.0
    quota: int = 1 << 30
    max_pending: int = 1 << 30
    priority: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("tenant name must be non-empty")
        if self.share <= 0:
            raise ConfigurationError("share must be > 0")
        if self.quota < 1 or self.max_pending < 1:
            raise ConfigurationError("quota and max_pending must be >= 1")

    def to_payload(self) -> dict:
        return {"name": self.name, "share": self.share,
                "quota": self.quota, "max_pending": self.max_pending,
                "priority": self.priority}


@dataclass(frozen=True)
class ServeConfig:
    """Cluster geometry and timing knobs of one control plane.

    >>> ServeConfig(num_machines=8, num_spares=1).schedulable_machines
    7
    """

    num_machines: int = 8
    devices_per_machine: int = 4
    num_spares: int = 1
    repair_ticks: int = 5
    #: simulated seconds one scheduling round takes when jobs stepped
    iteration_time: float = 1.0
    #: simulated seconds charged when a round steps nothing
    idle_time: float = 0.1
    #: upload a state snapshot to the global store every N rounds
    snapshot_interval: int = 25
    #: retry budget for those snapshot uploads
    storage_policy: BackoffPolicy = field(default_factory=BackoffPolicy)

    def __post_init__(self) -> None:
        spare_ids(self.num_machines, self.num_spares)
        check_repair_ticks(self.repair_ticks)
        if self.snapshot_interval < 1:
            raise ConfigurationError("snapshot_interval must be >= 1")

    @property
    def schedulable_machines(self) -> int:
        return self.num_machines - self.num_spares


#: ``log(kind, payload)``: durably append one event, then fold it
Log = Callable[[str, dict], object]


# -- the decide phases ------------------------------------------------------
# Each reads only the fold and logs a decision before it applies it.
# ServeServer.tick runs them, and so does the fleet simulator, whose log
# also executes every event on a live cluster.

def decide(state: ServeState, log: Log) -> None:
    """One round's decisions: reclaim, recover, settle, shed, place,
    restore.

    Phase order is crash-safety by construction: every phase's decision
    is *disabled by its own event's application*, so a server killed
    between any two appends re-runs the round and emits exactly the
    remaining events.  Settling comes AFTER recovery: a recover event
    re-enables the completion check for a blocked-at-target job, so
    settling first would make a crash-resumed tick (which re-runs all
    phases) complete jobs the uninterrupted tick stepped once more — the
    drill catches exactly this divergence.
    """
    for machine in state.pool.due():
        log("reclaim", {"machine": machine})
    for job in state.jobs_with_status("blocked"):
        for dead in list(job["pending_machines"]):
            spare = state.pool.next_spare()
            if spare is None:
                break
            log("lease", {"machine": dead, "spare": spare})
        if not job["pending_machines"]:
            log("recover", {"name": job["name"]})
    settle(state, log)
    _shed_impossible(state, log)
    _place_queue(state, log)
    _restore_preempted(state, log)


def settle(state: ServeState, log: Log) -> None:
    """Complete every running job whose last iteration is done."""
    for job in state.jobs_with_status("running"):
        if job["iterations_done"] >= int(job["spec"]["iterations"]):
            log("complete", {"name": job["name"]})


def commit(state: ServeState, log: Log, stepped: list[str],
           dt: float) -> None:
    """Close the round: each ``stepped`` job ran one iteration, and the
    round took ``dt`` simulated seconds."""
    log("round", {"round": state.round, "dt": dt, "stepped": stepped})


def crash(state: ServeState, log: Log, machine: int, tag: str = "") -> bool:
    """Fail-stop one machine; False, logging nothing, if already dead.

    Every running or blocked job with a slot on it is hit.  A non-empty
    ``tag`` doubles as an idempotency key: a tag already folded into the
    state means this exact crash was acknowledged before.
    """
    if machine not in state.machines:
        raise ConfigurationError(f"unknown machine {machine}")
    if tag and tag in state.failure_tags:
        return False
    # a spare that died in the pool is down but can fail again: its
    # repair restarts
    is_spare = state.pool.is_spare(machine)
    if not state.machines[machine]["alive"] and not is_spare:
        return False
    hit = [] if is_spare else [
        job["name"]
        for job in state.jobs_with_status("running", "blocked")
        if any(m == machine for m, _ in job["slots"])
    ]
    log("crash", {"machine": machine, "jobs": hit, "tag": tag,
                  "spare": is_spare})
    return True


def _shed_impossible(state: ServeState, log: Log) -> None:
    if not state.queue:
        return
    # a crash whose machine a lease will bring back is not a reason to
    # shed a job that fits once the repairs finish
    capacity = state.regainable_capacity()
    doomed = [
        state.jobs[name] for name in state.queue
        if int(state.jobs[name]["spec"]["num_workers"]) > capacity
    ]
    # graceful degradation: lowest tenant priority sheds first
    doomed.sort(key=lambda job: (
        state.tenants[job["tenant"]]["priority"],
        int(job["spec"].get("priority", 0)),
        job["submitted_seq"],
    ))
    for job in doomed:
        log("shed", {
            "name": job["name"],
            "reason": (f"needs {job['spec']['num_workers']} workers, "
                       f"cluster capacity is {capacity}"),
        })


def _spread(state: ServeState, num: int) -> list[tuple[int, int]] | None:
    failures = {m: rec["failures"] for m, rec in state.machines.items()}
    return spread(state.free_slots(), failures, num)


def _head(state: ServeState) -> dict:
    """The queued job to place next, by weighted fair share."""
    # an in-flight preemption (crash between preempt and place) pins
    # the head: finish the decision the dead server started
    reserved = state.reserved_jobs()
    if reserved:
        return min(reserved, key=lambda job: job["submitted_seq"])
    # each tenant's own line head is its only candidate (see
    # head_of_line), so this is O(tenants), not O(queue)
    return head_of_line(
        (job,
         state.tenant_usage(job["tenant"])
         / state.tenants[job["tenant"]]["share"],
         int(job["spec"].get("priority", 0)), job["submitted_seq"])
        for job in state.tenant_heads()
    )


def _place_queue(state: ServeState, log: Log) -> None:
    while state.queue:
        head = _head(state)
        want = int(head["spec"]["num_workers"])
        slots = _spread(state, want)
        if slots is None:
            slots = _try_preempt_for(state, log, head, want)
        if slots is None:
            return  # the head of the line blocks: no backfilling
        log("place", {"name": head["name"],
                      "slots": [list(s) for s in slots]})


def _try_preempt_for(
    state: ServeState, log: Log, head: dict, want: int
) -> list[tuple[int, int]] | None:
    """Shrink lower-priority elastic jobs until ``head`` fits."""
    priority = int(head["spec"].get("priority", 0))
    takes = preemption(want, len(state.free_slots()), [
        (job, int(job["spec"].get("priority", 0)), job["submitted_seq"],
         len(job["slots"]) - int(job["spec"].get("min_workers", 1)))
        for job in state.jobs_with_status("running")
        if job["spec"].get("elastic", False)
        and int(job["spec"].get("priority", 0)) < priority
    ])
    if takes is None:
        return None
    for job, take in takes:
        log("preempt", {"name": job["name"],
                        "slots": job["slots"][-take:],
                        "for": head["name"]})
    return _spread(state, want)


def _restore_preempted(state: ServeState, log: Log) -> None:
    if state.queue:
        return  # demand first, restoration second
    for job in restoration_order(
        (job, int(job["spec"].get("priority", 0)), job["submitted_seq"])
        for job in state.jobs_with_status("running")
        if job["spec"].get("elastic", False)
        and len(job["slots"]) < int(job["spec"]["num_workers"])
    ):
        missing = int(job["spec"]["num_workers"]) - len(job["slots"])
        slots = _spread(state, min(missing, len(state.free_slots())))
        if slots:
            log("restore", {"name": job["name"],
                            "slots": [list(s) for s in slots]})


class ServeServer:
    """The control plane: WAL-backed, multi-tenant, crash-recoverable.

    Opening a path whose WAL already has events *resumes* the dead
    server: the log is replayed (torn tail tolerated) and the next
    decision picks up exactly where the old process died.

    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "wal.jsonl")
    >>> server = ServeServer(path, ServeConfig(num_machines=4,
    ...                                        devices_per_machine=2))
    >>> server.register_tenant(TenantSpec(name="team-a"))
    'team-a'
    >>> from repro.jobs import JobSpec
    >>> server.submit("team-a", JobSpec(name="j0", parallelism="dp",
    ...                                 num_workers=2, iterations=3))
    ('accepted', 'j0')
    >>> server.run()                    # tick until every job settles
    >>> server.state.jobs["j0"]["status"]
    'completed'
    >>> server.close()
    """

    def __init__(
        self,
        wal_path: str | Path,
        config: ServeConfig | None = None,
        *,
        storage: GlobalStore | None = None,
        recorder: Recorder = NULL_RECORDER,
        fsync: bool = True,
        segment_bytes: int | None = None,
    ):
        self.recorder = recorder
        self.storage = storage if storage is not None else GlobalStore()
        self.wal = open_wal(wal_path, fsync=fsync,
                            meta={"service": "repro.serve"},
                            segment_bytes=segment_bytes, recorder=recorder)
        self.state = self.wal.recover_state()
        # anchor every segment rotation at the current state (the state
        # object is mutated in place, so the bound method always
        # reflects what the sealed segments folded to)
        self.wal.snapshot_provider = self.state.snapshot
        self.recovered = self.state.last_seq >= 0
        self.snapshot_failures = 0
        #: set while a graceful shutdown drains in-flight clients
        self.draining = False
        if self.recovered:
            cfg = self.state.config
            self.config = ServeConfig(
                num_machines=cfg["num_machines"],
                devices_per_machine=cfg["devices_per_machine"],
                num_spares=len(self.state.pool.spares)
                + len(self.state.pool.repairing),
                repair_ticks=cfg["repair_ticks"],
                iteration_time=cfg["iteration_time"],
                idle_time=cfg["idle_time"],
            ) if config is None else config
            self.recorder.instant("serve/recovered", track="serve")
            self.recorder.count("serve/replayed_events",
                                len(self.wal.events), track="serve")
        else:
            self.config = config or ServeConfig()
            self._log("init", {
                "num_machines": self.config.num_machines,
                "devices_per_machine": self.config.devices_per_machine,
                "spares": spare_ids(self.config.num_machines,
                                    self.config.num_spares),
                "repair_ticks": self.config.repair_ticks,
                "iteration_time": self.config.iteration_time,
                "idle_time": self.config.idle_time,
            })

    # -- the one write path ------------------------------------------------
    def _log(self, kind: str, payload: dict) -> ServeEvent:
        """Durably append, then apply: log-before-acknowledge."""
        event = ServeEvent(seq=self.wal.next_seq, kind=kind,
                           payload=payload)
        self.wal.append(event)
        self.state.apply(event)
        counter = _COUNTERS.get(kind)
        if counter is not None:
            self.recorder.count(counter, track="serve")
        return event

    # -- client-facing operations (each acknowledged after the WAL) --------
    def register_tenant(self, tenant: TenantSpec) -> str:
        """Register (or re-register) a tenant; returns its name.

        Idempotent for identical specs: re-registering a tenant whose
        record already matches logs nothing, so a client retrying after
        a lost ack does not grow the WAL.  A *changed* spec still logs
        (that is an update, not a duplicate).
        """
        payload = tenant.to_payload()
        existing = self.state.tenants.get(tenant.name)
        if existing is not None and all(
            existing[k] == v for k, v in payload.items()
        ):
            return tenant.name
        self._log("tenant", payload)
        return tenant.name

    def submit(self, tenant: str, spec: JobSpec,
               request_id: str = "") -> tuple[str, str]:
        """Admission-control a submission; returns (verdict, job name).

        The verdict — ``"accepted"`` or ``"rejected"`` — is durable in
        the WAL *before* this method returns, so an acknowledged
        submission can never be lost to a control-plane crash.

        A non-empty ``request_id`` makes the call **exactly-once**: the
        id is folded into the WAL alongside the verdict, and any later
        call with the same id (a client retrying a lost ack, even
        against a restarted server) returns the original verdict
        without logging — never a double admission.
        """
        rid = str(request_id or "")
        if rid and rid in self.state.dedup:
            hit = self.state.dedup[rid]
            self.recorder.count("serve/dedup_hits", track="serve")
            verdict = ("accepted" if hit["verdict"] == "submit"
                       else "rejected")
            return (verdict, hit["name"])
        name = spec.name
        if tenant not in self.state.tenants:
            raise ConfigurationError(f"unknown tenant {tenant!r}")
        if name in self.state.jobs:
            raise ConfigurationError(f"duplicate job name {name!r}")
        trec = self.state.tenants[tenant]
        payload = spec.to_payload()
        payload["tenant"] = tenant
        extra = {"request_id": rid} if rid else {}
        reason = None
        total_devices = (self.config.num_machines
                         * self.config.devices_per_machine)
        if spec.num_workers > total_devices:
            reason = (f"gang of {spec.num_workers} exceeds cluster "
                      f"capacity {total_devices}")
        elif self.state.tenant_demand(tenant) + spec.num_workers \
                > trec["quota"]:
            reason = (f"tenant quota {trec['quota']} exceeded "
                      f"(active demand "
                      f"{self.state.tenant_demand(tenant)})")
        elif self.state.pending_count(tenant) >= trec["max_pending"]:
            reason = f"tenant pending cap {trec['max_pending']} reached"
        if reason is not None:
            self._log("reject", {"name": name, "tenant": tenant,
                                 "spec": payload, "reason": reason,
                                 **extra})
            return ("rejected", name)
        self._log("submit", {"name": name, "tenant": tenant,
                             "spec": payload, **extra})
        return ("accepted", name)

    def inject_failure(self, machine: int, tag: str = "") -> bool:
        """Fail-stop one machine (chaos drills); False if already dead.

        A tag already folded means this crash was acknowledged before (a
        retried request after a lost ack): it is not injected twice.
        """
        return crash(self.state, self._log, machine, tag)

    def shrink_cluster(self, machines: list[int]) -> list[int]:
        """Permanently retire machines (capacity loss); returns retired.

        Machines currently holding job slots are skipped — shrink is for
        capacity decommission, crashes go through
        :meth:`inject_failure`.  Queued jobs that can no longer ever fit
        are shed on the next tick (graceful degradation).
        """
        occupied = {m for m, _ in self.state.occupied_slots()}
        retired = []
        for machine in sorted(set(int(m) for m in machines)):
            if machine not in self.state.machines:
                raise ConfigurationError(f"unknown machine {machine}")
            if machine in occupied:
                continue
            if self.state.machines[machine]["retired"]:
                continue
            self._log("retire", {"machine": machine})
            retired.append(machine)
        return retired

    # -- the scheduling round ----------------------------------------------
    def tick(self) -> int:
        """Run one scheduling round; returns the round number it ran.

        :func:`decide` logs the round's decisions; the closing ``round``
        event (:func:`commit`), in which every running job steps, is the
        commit point that advances time.
        """
        state = self.state
        rnd = state.round
        with self.recorder.span("serve/tick", track="serve"):
            decide(state, self._log)
            stepped = [job["name"]
                       for job in state.jobs_with_status("running")]
            commit(state, self._log, stepped,
                   self.config.iteration_time if stepped
                   else self.config.idle_time)
        if self.recorder.enabled:
            self.recorder.gauge("serve/free_slots",
                                len(state.free_slots()), track="serve")
            self.recorder.gauge("serve/queued", len(state.queue),
                                track="serve")
            self.recorder.gauge("serve/goodput", state.goodput(),
                                track="serve")
        if state.round % self.config.snapshot_interval == 0:
            self._upload_snapshot()
        return rnd

    @property
    def mid_tick(self) -> bool:
        """True when the WAL ends inside an uncommitted tick.

        The closing ``round`` event is a tick's commit point; a log whose
        last event is a tick-phase kind means the old process died
        mid-tick, and the resumed server must finish that tick (one more
        :meth:`tick`, whose already-applied phases no-op) before the run
        can be considered settled.
        """
        return self.wal.last_kind in _TICK_KINDS

    def run(self, max_rounds: int = 10_000) -> None:
        """Tick until every job settles (or the round budget runs out)."""
        for _ in range(max_rounds):
            if self.state.all_done() and not self.mid_tick:
                return
            self.tick()
        if not self.state.all_done():
            raise ConfigurationError(
                f"run did not settle within {max_rounds} rounds"
            )

    # -- checkpoint-storage fault envelope ---------------------------------
    def _upload_snapshot(self) -> None:
        """Snapshot state to the global store, retrying through outages.

        The snapshot is an optimization (the WAL is the truth), so after
        the retry budget is exhausted we degrade gracefully: count it,
        emit telemetry, move on.
        """
        snap = self.state.snapshot()
        now = self.state.fleet_time

        def attempt() -> float:
            return self.storage.upload(
                f"serve/snapshot/{self.state.round}",
                nbytes=len(snap), payload=snap, now=now,
            )

        try:
            retry_call(attempt, self.config.storage_policy,
                       retry_on=(StorageError,),
                       recorder=self.recorder, name="serve/storage")
        except StorageError:
            self.snapshot_failures += 1
            self.recorder.instant("serve/snapshot_failed", track="serve")

    def close(self) -> None:
        self.wal.close()

    def __enter__(self) -> "ServeServer":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
