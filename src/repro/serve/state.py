"""ServeState: control-plane state as a pure fold over the WAL.

Everything the control plane knows — tenants, jobs, the admission
queue, placements, spare leases, machine health, accounting — lives in
one :class:`ServeState`, and the *only* way it changes is
:meth:`ServeState.apply` of a :class:`~repro.serve.wal.ServeEvent`.
That discipline buys the paper's recovery story for the scheduler
itself:

* **replay is recovery** — a restarted server folds the WAL through
  ``apply`` and lands bitwise-equal (``snapshot()`` string equality) to
  the pre-crash state;
* **replay is idempotent** — events at or below ``last_seq`` are
  no-ops, so replaying a log twice equals replaying it once;
* **decisions are replayable** — the server computes every scheduling
  decision as a pure function of this state, so a resumed run re-derives
  exactly the future the uninterrupted run would have had.

The scheduling views (free slots, per-tenant usage, demand and queue,
jobs by status) read derived indexes kept by ``apply``, equal to
recomputation from ``jobs``.  They are not part of the snapshot: a
folded or restored state builds them from its job records on the first
query, so a WAL fold does no index work.

The spares are a :class:`repro.jobs.SparePool`, and every spare
handler calls it: a ``lease``
slides the spare's hardware into the failed machine's id (job slots stay
stable), the broken hardware repairs under the spare's id, each
``round`` counts the repairs down, and ``reclaim`` returns a repaired
machine to the pool as the new spare.  Configured with no spares there
is no pool: a ``crash`` that hits jobs replaces its machine at once, so
they are blocked only until the next tick logs their ``recover``.
"""

from __future__ import annotations

from bisect import bisect_left, insort

from repro.errors import ConfigurationError
from repro.jobs.placement import line_key
from repro.jobs.spare import SparePool
from repro.serve.wal import ServeEvent
from repro.utils.jsonl import canonical_json

__all__ = ["ServeState"]

#: job lifecycle states tracked by the control plane
JOB_STATUSES = (
    "queued", "running", "blocked",
    "completed", "failed", "rejected", "shed",
)

#: statuses that still consume (or will consume) cluster resources
ACTIVE_STATUSES = ("queued", "running", "blocked")


def _job_record(name: str, tenant: str, spec: dict, seq: int,
                status: str, rnd: int) -> dict:
    return {
        "name": name,
        "tenant": tenant,
        "spec": spec,
        "status": status,
        "slots": [],
        "iterations_done": 0,
        "submitted_seq": seq,
        "submit_round": rnd,
        "start_round": None,
        "finish_round": None,
        "failures": 0,
        "recoveries": 0,
        "preemptions": 0,
        "pending_machines": [],
        # slots freed by an in-flight preemption on this job's behalf;
        # lets a crash-resumed server finish the same placement decision
        "reserved_slots": [],
    }


def _tenant_record(payload: dict) -> dict:
    return {
        "name": str(payload["name"]),
        "share": float(payload.get("share", 1.0)),
        "quota": int(payload.get("quota", 1 << 30)),
        "max_pending": int(payload.get("max_pending", 1 << 30)),
        "priority": int(payload.get("priority", 0)),
        "submitted": 0,
        "rejected": 0,
        "completed": 0,
        "failed": 0,
        "shed": 0,
    }


def _named_jobs(p: dict) -> list[str]:
    """The job names an event payload carries: its subject (``name``),
    a preemption's beneficiary (``for``) and a crash's victims
    (``jobs``).  Every handler that changes a field :class:`_Index`
    reads changes it only on these records."""
    names = [str(p["name"])] if "name" in p else []
    if p.get("for"):
        names.append(str(p["for"]))
    names.extend(str(n) for n in p.get("jobs", ()))
    return list(dict.fromkeys(names))


class _Index:
    """Scheduling indexes over job records, built from ``jobs`` and then
    kept by :meth:`ServeState.apply`.  They read a record's ``status``,
    ``tenant``, ``slots``, ``reserved_slots``, ``submitted_seq`` and its
    spec's ``num_workers`` and ``priority``."""

    def __init__(self, jobs: dict[str, dict]) -> None:
        self.by_status: dict[str, set[str]] = {}
        #: (machine, device) -> number of running/blocked jobs holding it
        self.occupied: dict[tuple[int, int], int] = {}
        #: tenant -> slots its running jobs hold
        self.usage: dict[str, int] = {}
        #: tenant -> workers its active jobs request
        self.demand: dict[str, int] = {}
        #: tenant -> its queued jobs as sorted ``(line_key, name)`` rows
        self.line: dict[str, list[tuple[tuple, str]]] = {}
        #: queued jobs holding slots an in-flight preemption freed
        self.reserved: set[str] = set()
        for job in jobs.values():
            self.update(job, 1)

    def update(self, job: dict, sign: int) -> None:
        """Add (``sign=1``) or remove (``sign=-1``) one record."""
        name, tenant, status = job["name"], job["tenant"], job["status"]
        names = self.by_status.setdefault(status, set())
        if sign > 0:
            names.add(name)
        else:
            names.discard(name)
        if status in ("running", "blocked"):
            for m, d in job["slots"]:
                held = self.occupied.get((m, d), 0) + sign
                if held:
                    self.occupied[(m, d)] = held
                else:
                    del self.occupied[(m, d)]
        if status == "running":
            self.usage[tenant] = (self.usage.get(tenant, 0)
                                  + sign * len(job["slots"]))
        if status in ACTIVE_STATUSES:
            self.demand[tenant] = (
                self.demand.get(tenant, 0)
                + sign * int(job["spec"].get("num_workers", 1)))
        if status == "queued":
            row = (line_key(int(job["spec"].get("priority", 0)),
                            job["submitted_seq"]), name)
            line = self.line.setdefault(tenant, [])
            if sign > 0:
                insort(line, row)
            else:
                del line[bisect_left(line, row)]
            if job["reserved_slots"]:
                if sign > 0:
                    self.reserved.add(name)
                else:
                    self.reserved.discard(name)


class ServeState:
    """The event-sourced control-plane state (see module docstring).

    >>> from repro.serve.wal import ServeEvent
    >>> s = ServeState()
    >>> s.apply(ServeEvent(seq=0, kind="init", payload={
    ...     "num_machines": 4, "devices_per_machine": 2, "spares": [3],
    ...     "repair_ticks": 2, "iteration_time": 1.0, "idle_time": 0.1}))
    True
    >>> s.capacity()                    # 3 schedulable machines x 2 slots
    6
    >>> s.apply(ServeEvent(seq=0, kind="init", payload={}))  # idempotent
    False
    """

    def __init__(self) -> None:
        self.config: dict = {}
        self.machines: dict[int, dict] = {}
        self.pool = SparePool([], repair_ticks=1)
        self.tenants: dict[str, dict] = {}
        self.jobs: dict[str, dict] = {}
        self.queue: list[str] = []
        self.round: int = 0
        self.fleet_time: float = 0.0
        self.last_seq: int = -1
        self.failure_tags: list[str] = []
        # request-id -> {"name", "verdict"}: the exactly-once dedup
        # table.  Folded from submit/reject events, so it survives
        # replay — a client retrying after a lost ack gets the original
        # verdict back even from a restarted server.
        self.dedup: dict[str, dict] = {}
        # built on the first view query, then kept by apply; never
        # snapshotted
        self._index: _Index | None = None

    # -- event fold --------------------------------------------------------
    def apply(self, event: ServeEvent) -> bool:
        """Fold one event into the state; returns False for replays.

        Events at or below ``last_seq`` were already applied (this is
        what makes replay idempotent); a gap above ``last_seq + 1``
        means the log lost events and is refused.

        Once the indexes are built, ``apply`` is their only writer: it
        removes the records the event names, runs the handler, and adds
        them back.
        """
        if event.seq <= self.last_seq:
            return False
        if event.seq != self.last_seq + 1:
            raise ConfigurationError(
                f"event sequence gap: state at seq {self.last_seq}, "
                f"got event seq {event.seq}"
            )
        handler = _HANDLERS.get(event.kind)
        if handler is None:
            raise ConfigurationError(
                f"no state handler for event kind {event.kind!r}"
            )
        index = self._index
        if index is None:
            handler(self, event.payload)
        else:
            names = _named_jobs(event.payload)
            for name in names:
                if name in self.jobs:
                    index.update(self.jobs[name], -1)
            try:
                handler(self, event.payload)
            except BaseException:
                self._index = None  # rebuilt from the records on demand
                raise
            for name in names:
                if name in self.jobs:
                    index.update(self.jobs[name], 1)
        self.last_seq = event.seq
        return True

    @classmethod
    def replay(cls, events: list[ServeEvent]) -> "ServeState":
        """Reconstruct state from a WAL event list (crash recovery).

        >>> from repro.serve.wal import ServeEvent
        >>> events = [ServeEvent(seq=0, kind="init", payload={
        ...     "num_machines": 2, "devices_per_machine": 1, "spares": [],
        ...     "repair_ticks": 1, "iteration_time": 1.0, "idle_time": 0.1})]
        >>> a = ServeState.replay(events)
        >>> b = ServeState.replay(events + events)   # twice == once
        >>> a.snapshot() == b.snapshot()
        True
        """
        state = cls()
        for event in events:
            state.apply(event)
        return state

    # -- handlers (one per event kind) ------------------------------------
    def _on_init(self, p: dict) -> None:
        self.config = {
            "num_machines": int(p["num_machines"]),
            "devices_per_machine": int(p["devices_per_machine"]),
            "repair_ticks": int(p.get("repair_ticks", 1)),
            "iteration_time": float(p.get("iteration_time", 1.0)),
            "idle_time": float(p.get("idle_time", 0.1)),
        }
        self.machines = {
            m: {"alive": True, "failures": 0, "retired": False}
            for m in range(self.config["num_machines"])
        }
        self.pool = SparePool.configured(p.get("spares", []),
                                         self.config["repair_ticks"])

    def _on_tenant(self, p: dict) -> None:
        rec = _tenant_record(p)
        self.tenants[rec["name"]] = rec

    def _on_submit(self, p: dict) -> None:
        name = str(p["name"])
        tenant = str(p["tenant"])
        self.jobs[name] = _job_record(
            name, tenant, dict(p["spec"]), self.last_seq + 1,
            "queued", self.round,
        )
        self.queue.append(name)
        self.tenants[tenant]["submitted"] += 1
        rid = str(p.get("request_id", ""))
        if rid:
            self.dedup[rid] = {"name": name, "verdict": "submit"}

    def _on_reject(self, p: dict) -> None:
        name = str(p["name"])
        tenant = str(p["tenant"])
        rec = _job_record(name, tenant, dict(p.get("spec", {})),
                          self.last_seq + 1, "rejected", self.round)
        rec["reason"] = str(p.get("reason", ""))
        self.jobs[name] = rec
        if tenant in self.tenants:
            self.tenants[tenant]["rejected"] += 1
        rid = str(p.get("request_id", ""))
        if rid:
            self.dedup[rid] = {"name": name, "verdict": "reject"}

    def _on_place(self, p: dict) -> None:
        job = self.jobs[str(p["name"])]
        job["status"] = "running"
        job["slots"] = [[int(m), int(d)] for m, d in p["slots"]]
        job["reserved_slots"] = []
        if job["start_round"] is None:
            job["start_round"] = self.round
        self.queue.remove(job["name"])

    def _on_preempt(self, p: dict) -> None:
        job = self.jobs[str(p["name"])]
        freed = [[int(m), int(d)] for m, d in p["slots"]]
        job["slots"] = [s for s in job["slots"] if s not in freed]
        job["preemptions"] += 1
        beneficiary = p.get("for")
        if beneficiary and str(beneficiary) in self.jobs:
            rec = self.jobs[str(beneficiary)]
            rec["reserved_slots"] = rec["reserved_slots"] + freed

    def _on_restore(self, p: dict) -> None:
        job = self.jobs[str(p["name"])]
        added = [[int(m), int(d)] for m, d in p["slots"]]
        job["slots"] = job["slots"] + added

    def _on_crash(self, p: dict) -> None:
        machine = int(p["machine"])
        names = p.get("jobs", [])
        # no pool: a job's machine is replaced at once, nothing pends
        by_fiat = self.pool.by_fiat and bool(names)
        rec = self.machines[machine]
        rec["failures"] += 1
        rec["alive"] = by_fiat
        tag = str(p.get("tag", ""))
        if tag:
            self.failure_tags.append(tag)
        self.pool.crash(machine)
        for name in names:
            job = self.jobs[str(name)]
            job["failures"] += 1
            if job["status"] == "running":
                job["status"] = "blocked"
            if not by_fiat and machine not in job["pending_machines"]:
                job["pending_machines"].append(machine)

    def _on_lease(self, p: dict) -> None:
        dead = int(p["machine"])
        self.pool.lease(int(p["spare"]))
        self.machines[dead]["alive"] = True
        for job in self.jobs.values():
            if dead in job["pending_machines"]:
                job["pending_machines"].remove(dead)

    def _on_recover(self, p: dict) -> None:
        job = self.jobs[str(p["name"])]
        job["status"] = "running"
        job["recoveries"] += 1

    def _on_reclaim(self, p: dict) -> None:
        machine = int(p["machine"])
        self.pool.reclaim(machine)
        self.machines[machine]["alive"] = True

    def _on_retire(self, p: dict) -> None:
        machine = int(p["machine"])
        self.machines[machine]["retired"] = True
        self.pool.retire(machine)

    def _on_shed(self, p: dict) -> None:
        job = self.jobs[str(p["name"])]
        job["status"] = "shed"
        job["reserved_slots"] = []
        job["reason"] = str(p.get("reason", ""))
        self.queue.remove(job["name"])
        self.tenants[job["tenant"]]["shed"] += 1

    def _on_complete(self, p: dict) -> None:
        job = self.jobs[str(p["name"])]
        job["status"] = "completed"
        job["slots"] = []
        job["finish_round"] = self.round
        self.tenants[job["tenant"]]["completed"] += 1

    def _on_fail(self, p: dict) -> None:
        job = self.jobs[str(p["name"])]
        job["status"] = "failed"
        job["slots"] = []
        job["finish_round"] = self.round
        job["reason"] = str(p.get("reason", ""))
        if job["name"] in self.queue:  # failed at placement, never ran
            self.queue.remove(job["name"])
        self.tenants[job["tenant"]]["failed"] += 1

    def _on_round(self, p: dict) -> None:
        if int(p["round"]) != self.round:
            raise ConfigurationError(
                f"round event out of order: state at round {self.round}, "
                f"event says {p['round']}"
            )
        for name in p.get("stepped", []):
            self.jobs[str(name)]["iterations_done"] += 1
        self.pool.end_round()
        self.round += 1
        self.fleet_time += float(p["dt"])

    # -- derived indexes kept by apply, equal to recomputation -------------
    def _indexed(self) -> _Index:
        if self._index is None:
            self._index = _Index(self.jobs)
        return self._index

    def schedulable_machines(self, waited_on: set[int] = frozenset()
                             ) -> list[int]:
        """Alive, non-retired machines outside the spare/repair pools,
        plus the dead ones in ``waited_on``."""
        held = set(self.pool.spares) | {m for m, _ in self.pool.repairing}
        return [
            m for m, rec in sorted(self.machines.items())
            if (rec["alive"] or m in waited_on)
            and not rec["retired"] and m not in held
        ]

    def capacity(self) -> int:
        """Total schedulable device slots right now."""
        return (len(self.schedulable_machines())
                * self.config.get("devices_per_machine", 0))

    def regainable_capacity(self) -> int:
        """The slots the cluster can get back: the schedulable machines
        and the dead ones a blocked job waits on, the only ones a lease
        revives (an idle machine that crashed stays dead)."""
        waited_on = {m for n in self._indexed().by_status.get("blocked", ())
                     for m in self.jobs[n]["pending_machines"]}
        return (len(self.schedulable_machines(waited_on))
                * self.config.get("devices_per_machine", 0))

    def occupied_slots(self) -> set[tuple[int, int]]:
        """Slots held by running and blocked jobs."""
        return set(self._indexed().occupied)

    def free_slots(self) -> list[tuple[int, int]]:
        occupied = self._indexed().occupied
        dev = self.config.get("devices_per_machine", 0)
        return [
            (m, d)
            for m in self.schedulable_machines()
            for d in range(dev)
            if (m, d) not in occupied
        ]

    def tenant_usage(self, tenant: str) -> int:
        """Device slots currently held by a tenant's running jobs."""
        return self._indexed().usage.get(tenant, 0)

    def tenant_demand(self, tenant: str) -> int:
        """Worker slots requested by a tenant's active jobs."""
        return self._indexed().demand.get(tenant, 0)

    def pending_count(self, tenant: str) -> int:
        return len(self._indexed().line.get(tenant, ()))

    def tenant_heads(self) -> list[dict]:
        """Each tenant's first queued job by
        :func:`~repro.jobs.placement.line_key`."""
        return [self.jobs[line[0][1]]
                for line in self._indexed().line.values() if line]

    def reserved_jobs(self) -> list[dict]:
        """Queued jobs holding slots an in-flight preemption freed."""
        return [self.jobs[name] for name in self._indexed().reserved]

    def jobs_with_status(self, *statuses: str) -> list[dict]:
        by_status = self._indexed().by_status
        names = set().union(*(by_status.get(s, ()) for s in statuses))
        return [self.jobs[name] for name in sorted(names)]

    def acked_jobs(self) -> list[str]:
        """Every job name whose submission was acknowledged.

        Both accepted (``submit``) and refused (``reject``) submissions
        are acknowledged through the WAL, so after any crash-replay this
        list must contain every name a client ever got an answer for.
        """
        return sorted(self.jobs)

    def total_samples(self) -> float:
        return float(sum(
            job["iterations_done"] * int(job["spec"].get("batch_size", 1))
            for job in self.jobs.values()
        ))

    def goodput(self) -> float:
        """Samples per simulated second across all tenants."""
        if self.fleet_time <= 0:
            return 0.0
        return self.total_samples() / self.fleet_time

    def all_done(self) -> bool:
        """True when no job is queued, running, or blocked."""
        by_status = self._indexed().by_status
        return not any(by_status.get(s) for s in ACTIVE_STATUSES)

    # -- snapshots ---------------------------------------------------------
    def snapshot(self) -> str:
        """Canonical JSON of the entire state; equality is bitwise.

        Two states are *the same* exactly when their snapshots are equal
        as strings — this is the equality the crash-recovery acceptance
        tests assert between a pre-crash server and its replayed
        successor.
        """
        return canonical_json({
            "config": self.config,
            "machines": {str(m): rec
                         for m, rec in sorted(self.machines.items())},
            # null, not [], for no pool: an empty pool blocks recoveries
            "spares": None if self.pool.by_fiat else self.pool.spares,
            "repairing": self.pool.repairing,
            "tenants": self.tenants,
            "jobs": self.jobs,
            "queue": self.queue,
            "round": self.round,
            "fleet_time": self.fleet_time,
            "last_seq": self.last_seq,
            "failure_tags": self.failure_tags,
            "dedup": self.dedup,
        })

    @classmethod
    def restore(cls, snapshot_json: str) -> "ServeState":
        """Rebuild a state from a :meth:`snapshot` string.

        The inverse of ``snapshot()`` — ``restore(s).snapshot() == s``
        for every reachable state.  This is what lets a segmented WAL
        anchor recovery at a durable snapshot and replay only the tail
        segment instead of the whole history.

        >>> s = ServeState()
        >>> ServeState.restore(s.snapshot()).snapshot() == s.snapshot()
        True
        """
        import json as _json

        d = _json.loads(snapshot_json)
        state = cls()
        state.config = dict(d["config"])
        state.machines = {int(m): rec for m, rec in d["machines"].items()}
        state.pool = SparePool(d["spares"],
                               state.config.get("repair_ticks", 1),
                               d["repairing"])
        state.tenants = dict(d["tenants"])
        state.jobs = dict(d["jobs"])
        state.queue = list(d["queue"])
        state.round = int(d["round"])
        state.fleet_time = float(d["fleet_time"])
        state.last_seq = int(d["last_seq"])
        state.failure_tags = list(d["failure_tags"])
        state.dedup = dict(d.get("dedup", {}))
        return state

    def summary(self) -> dict:
        """Small human-facing status dict (the ``status`` protocol op)."""
        return {
            "round": self.round,
            "fleet_time": self.fleet_time,
            "last_seq": self.last_seq,
            "jobs": {status: len(names) for status, names
                     in sorted(self._indexed().by_status.items())
                     if names},
            "tenants": {
                name: {k: rec[k] for k in
                       ("submitted", "rejected", "completed", "shed")}
                for name, rec in sorted(self.tenants.items())
            },
            "capacity": self.capacity(),
            "free_slots": len(self.free_slots()),
            "spares": len(self.pool.spares),
            "goodput": self.goodput(),
        }


#: event kind -> its ``ServeState._on_<kind>`` handler, the one table
#: ``apply`` dispatches through
_HANDLERS = {name[len("_on_"):]: handler
             for name, handler in vars(ServeState).items()
             if name.startswith("_on_")}
