"""Gang scheduler: places jobs on a shared cluster, preempts, routes failures.

The gang policy is :mod:`repro.jobs.placement`, the one the serve control
plane decides with; the scheduler applies it to a live :class:`Cluster`:

* **Gang placement.**  A job needs all ``num_workers`` slots at once.  The
  queue is a plain list in submission order; :func:`head_of_line` picks
  the highest-priority, earliest job, and if it does not fit the line
  blocks.  :func:`spread` takes slots round-robin over the machines with
  the fewest failures.  A job whose plan has no engine for the slots it
  was granted ends ``FAILED`` (``job.error`` says why) and gives them back.
* **Priority preemption via elasticity.**  When the head does not fit,
  the lower-priority *elastic* jobs :func:`preemption` names are shrunk
  with :meth:`ElasticCoordinator.scale_in` (abrupt; update-undo keeps them
  crash-consistent, paper Section 8) instead of being killed, and re-grow
  in :func:`restoration_order` once nothing is queued.
* **Failure routing.**  A machine crash is routed to *every* job holding a
  slot on that machine; each runs its own Swift recovery while all other
  jobs keep running.  Each crash consumes one spare from the
  :class:`SparePool`; with the pool empty the affected jobs block until a
  repair reclaims capacity, and with no pool the machine is replaced by
  fiat.  The pool is the same state machine the serve fold runs; the
  scheduler applies its ``Cluster`` side effects — the
  spares' slots stay reserved, a spare that dies in the pool fails, a
  reclaimed machine is replaced — and counts the leases.
* **Its own log.**  Every transition is appended to ``events`` in the
  serve WAL vocabulary at the moment it is taken, so the fleet's WAL is
  written by the code that decided.
"""

from __future__ import annotations

from repro.cluster.topology import Cluster
from repro.errors import ConfigurationError, RecoveryError
from repro.jobs.placement import (
    head_of_line,
    preemption,
    restoration_order,
    spread,
)
from repro.jobs.spare import SparePool
from repro.jobs.spec import Job, JobState

__all__ = ["Scheduler"]

#: owner tag holding the spares' slots, so no gang is placed on them
SPARE_OWNER = "spare-pool"


class Scheduler:
    """Multiplexes :class:`Job` gangs onto one shared :class:`Cluster`."""

    def __init__(self, cluster: Cluster, spares: SparePool | None = None):
        self.cluster = cluster
        #: hot spares; ``None`` is no pool (replacements appear by fiat)
        self.spares = spares if spares is not None else SparePool(None)
        #: spares leased to recoveries (cumulative)
        self.spare_leases = 0
        for m in self.spares.spares:
            cluster.reserve_slots(
                [(m, d) for d in range(len(cluster.machine(m).devices))],
                SPARE_OWNER)
        #: queued jobs in submission order; :func:`head_of_line` picks
        self.queue: list[Job] = []
        self.jobs: dict[str, Job] = {}
        self.running: list[Job] = []
        self.blocked: list[Job] = []
        #: total workers taken from elastic jobs by preemption (cumulative)
        self.preempted_workers = 0
        #: broken machines whose replacement has already been leased while
        #: their owning job(s) were still blocked on further machines
        self._leased_pending: set[int] = set()
        #: ``(kind, payload)`` serve WAL events, appended as transitions
        #: are taken; the fleet simulator adds its own and drains the list
        self.events: list[tuple[str, dict]] = []

    # -- submission --------------------------------------------------------
    def submit(self, job: Job, now: float = 0.0) -> None:
        if job.name in self.jobs:
            raise ConfigurationError(f"duplicate job name {job.name!r}")
        self.jobs[job.name] = job
        job.submit_time = now
        self.queue.append(job)

    def _log(self, kind: str, payload: dict) -> None:
        self.events.append((kind, payload))

    # -- placement ---------------------------------------------------------
    def _spread(self, num: int) -> list[tuple[int, int]] | None:
        failures = {m.machine_id: m.failure_count
                    for m in self.cluster.machines}
        return spread(self.cluster.free_slots(), failures, num)

    def _preempt_for(self, job: Job) -> list[tuple[int, int]] | None:
        """Shrink lower-priority elastic jobs until ``job``'s gang fits."""
        takes = preemption(
            job.spec.num_workers,
            len(self.cluster.free_slots()),
            [(v, v.spec.priority, v.submit_time, v.shrinkable)
             for v in self.running if v.spec.priority < job.spec.priority],
        )
        if takes is None:
            return None
        for victim, take in takes:
            freed = victim.shrink(take)
            self.cluster.release_slots(freed, victim.owner_tag)
            self.preempted_workers += take
            self._log("preempt", {"name": victim.name,
                                  "slots": [[m, d] for m, d in freed],
                                  "for": job.name})
        return self._spread(job.spec.num_workers)

    def restore(self) -> int:
        """Re-grow preempted elastic jobs from free capacity.

        Runs only when the queue is empty (queued gangs outrank
        restoration).  Higher-priority victims are restored first.
        Returns the number of workers given back.
        """
        if self.queue:
            return 0
        restored = 0
        for job in restoration_order(
            (j, j.spec.priority, j.submit_time) for j in self.running
            if j.missing_workers and j.state == JobState.RUNNING
        ):
            free = len(self.cluster.free_slots())
            slots = self._spread(min(job.missing_workers, free))
            if not slots:
                continue
            self.cluster.reserve_slots(slots, job.owner_tag)
            job.grow(slots)
            restored += len(slots)
            self._log("restore", {"name": job.name,
                                  "slots": [[m, d] for m, d in slots]})
        return restored

    # -- the scheduling pass -----------------------------------------------
    def schedule(self, now: float = 0.0) -> list[Job]:
        """Start as many queued gangs as fit (head-of-line order)."""
        started: list[Job] = []
        while self.queue:
            # one tenant: every queued job is at equal usage
            job = head_of_line(
                (j, 0, j.spec.priority, i) for i, j in enumerate(self.queue)
            )
            slots = self._spread(job.spec.num_workers)
            if slots is None:
                slots = self._preempt_for(job)
            if slots is None:
                break
            self.queue.remove(job)
            self.cluster.reserve_slots(slots, job.owner_tag)
            try:
                job.start(self.cluster, slots, now=now)
            except ConfigurationError as exc:
                # the plan has no engine for the slots this fleet can
                # grant (e.g. explicit replication with every replica on
                # one machine): the job is lost, the line moves on
                self.cluster.release_owner(job.owner_tag)
                job.state = JobState.FAILED
                job.error = str(exc)
                self._log("fail", {"name": job.name, "reason": job.error})
                continue
            self.running.append(job)
            started.append(job)
            self._log("place", {"name": job.name,
                                "slots": [[m, d] for m, d in slots]})
        return started

    # -- completion --------------------------------------------------------
    def finish(self, job: Job, now: float = 0.0) -> None:
        """Release a completed job's slots and record its finish time."""
        self.cluster.release_owner(job.owner_tag)
        if job in self.running:
            self.running.remove(job)
        job.state = JobState.COMPLETED
        job.finish_time = now
        self._log("complete", {"name": job.name})

    # -- failure routing ---------------------------------------------------
    def owners_of(self, machine_id: int) -> list[Job]:
        """Jobs holding at least one slot on a machine."""
        tags = self.cluster.owners_on_machine(machine_id)
        return [
            job for job in self.running + self.blocked
            if job.owner_tag in tags
        ]

    def handle_machine_failure(self, machine_id: int) -> list[Job]:
        """Route one machine crash; returns the jobs it touched.

        Exactly one spare is consumed per crash event regardless of how
        many jobs share the machine.  With no spare available the owning
        jobs block (pool reclaim unblocks them via :meth:`unblock`).
        """
        owners = self.owners_of(machine_id)
        is_spare = self.spares.is_spare(machine_id)
        self._log("crash", {"machine": machine_id,
                            "jobs": sorted(job.name for job in owners),
                            "spare": is_spare})
        if not owners:
            # idle machine: either a spare or genuinely free capacity
            # (a spare in repair is already out of the pool: its timer
            # restarts, the cluster machine stays as it is)
            if not is_spare or machine_id in self.spares.spares:
                self.cluster.fail_machine(machine_id)
            if is_spare:
                self.spares.crash(machine_id)
            return []
        if machine_id in self._leased_pending:
            spare = 0  # this machine's replacement is already secured
        else:
            spare = self._lease(machine_id)
        # fail once for every owner first (the machine stays down until
        # the first recovery replaces it), THEN run recoveries — so one
        # hardware event is one failure_count tick, and no owner re-kills
        # a machine a co-located job just restored
        for job in owners:
            job.apply_failure(machine_id)
        for job in owners:
            unpaid = (
                set(job.pending_machines)
                - {machine_id}
                - self._leased_pending
            )
            if spare is None or unpaid:
                # no replacement for this event, or the job still waits
                # on other machines: (stay) blocked.  A secured lease is
                # banked so unblock() does not buy it twice.
                if spare is not None:
                    self._leased_pending.add(machine_id)
                job.state = JobState.BLOCKED
                if job in self.running:
                    self.running.remove(job)
                if job not in self.blocked:
                    self.blocked.append(job)
            else:
                self._recover_or_fail(job)
        self._drop_leases({machine_id})
        return owners

    def unblock(self) -> list[Job]:
        """Resume blocked jobs once the spare pool has capacity again.

        Every distinct broken machine needs its own spare lease ("one
        spare per crash event"); a job blocked on several machines only
        resumes once replacements for all of them are secured.  Leases
        obtained while the pool drains again are remembered in
        ``_leased_pending`` so they are not re-bought next round.
        """
        resumed: list[Job] = []
        pending: list[int] = []
        for job in list(self.blocked):
            if not job.pending_machines:  # already recovered elsewhere
                self.blocked.remove(job)
                continue
            for m in job.pending_machines:
                if m not in pending and m not in self._leased_pending:
                    pending.append(m)
        for machine_id in pending:
            if self._lease(machine_id) is None:
                break  # pool drained; the rest keep waiting
            self._leased_pending.add(machine_id)
        for job in list(self.blocked):
            machines = set(job.pending_machines)
            if not machines <= self._leased_pending:
                continue
            self._recover_or_fail(job)
            if job.state == JobState.RUNNING:
                resumed.append(job)
            self._drop_leases(machines)
        return resumed

    def reclaim(self, machine_id: int) -> None:
        """A repair is done: the machine rejoins the pool as a spare."""
        self.spares.reclaim(machine_id)
        if not self.cluster.machine(machine_id).alive:
            self.cluster.replace_machine(machine_id)
        self._log("reclaim", {"machine": machine_id})

    def _lease(self, machine_id: int) -> int | None:
        """One spare for a broken machine: its id, ``None`` with the pool
        empty, ``0`` with no pool (replacements appear by fiat)."""
        if self.spares.by_fiat:
            return 0
        spare = self.spares.next_spare()
        if spare is None:
            return None
        self.spares.lease(spare)
        self.spare_leases += 1
        self._log("lease", {"machine": machine_id, "spare": spare})
        return spare

    def _drop_leases(self, machines: set[int]) -> None:
        """Forget banked leases no still-blocked job is waiting on."""
        still_needed = {m for j in self.blocked for m in j.pending_machines}
        self._leased_pending -= machines - still_needed

    def _recover_or_fail(self, job: Job) -> None:
        # a BLOCKED job may be recovered directly (e.g. a later failure on
        # its machine arrives once spares exist): normalize membership
        if job in self.blocked:
            self.blocked.remove(job)
        # the job's recovery mechanism replaces EVERY failed machine it
        # sees (Appendix-B joint handling, written for dedicated
        # clusters).  Machines that are down for unrelated reasons —
        # failed free capacity, spares in repair, other jobs' pending
        # failures — must not be resurrected for free: remember them and
        # take them back offline afterwards.
        protected = [
            m.machine_id
            for m in self.cluster.failed_machines()
            if job.owner_tag
            not in self.cluster.owners_on_machine(m.machine_id)
        ]
        try:
            job.recover()
        except RecoveryError:
            # e.g. no surviving replica and recovery budget exhausted:
            # the job is lost; give its hardware back
            self.cluster.release_owner(job.owner_tag)
            if job in self.running:
                self.running.remove(job)
            job.state = JobState.FAILED
            self._log("fail", {"name": job.name,
                               "reason": "recovery impossible"})
        else:
            if job not in self.running:
                self.running.append(job)
            self._log("recover", {"name": job.name})
        for machine_id in protected:
            machine = self.cluster.machine(machine_id)
            if machine.alive:
                machine.take_offline()
