"""Gang scheduler: places jobs on a shared cluster, preempts, routes failures.

The scheduling model (one PR-sized slice of a production scheduler à la
ReaLHF's scheduler layer):

* **Gang placement.**  A job needs all ``num_workers`` slots at once.  The
  queue is priority-then-FIFO; the head blocks the line (no backfilling),
  so large high-priority gangs cannot be starved.  A job whose plan has
  no engine for the slots it was granted ends ``FAILED`` (``job.error``
  says why) and gives them back.
* **Failure-aware placement.**  Free slots are taken round-robin across
  machines ordered by ascending hardware ``failure_count`` — gangs spread
  over the healthiest failure domains first, which both shrinks the blast
  radius of the next crash and keeps survivors for replication recovery.
* **Priority preemption via elasticity.**  When the head job does not fit,
  lower-priority *elastic* jobs are shrunk with
  :meth:`ElasticCoordinator.scale_in` (abrupt; update-undo keeps them
  crash-consistent, paper Section 8) instead of being killed.  Freed slots
  go to the head job; shrunk jobs are re-grown by :meth:`restore` once
  capacity frees up.
* **Failure routing.**  A machine crash is routed to *every* job holding a
  slot on that machine; each runs its own Swift recovery (replication for
  DP, logging replay for PP) while all other jobs keep running.  Each
  crash consumes one spare from the :class:`SparePool`; with the pool
  empty the affected jobs block until a repair reclaims capacity.
"""

from __future__ import annotations

from repro.cluster.topology import Cluster
from repro.errors import ConfigurationError, RecoveryError
from repro.jobs.queue import JobQueue
from repro.jobs.spare import SparePool
from repro.jobs.spec import Job, JobState

__all__ = ["Scheduler"]


class Scheduler:
    """Multiplexes :class:`Job` gangs onto one shared :class:`Cluster`."""

    def __init__(self, cluster: Cluster, spares: SparePool | None = None):
        self.cluster = cluster
        self.spares = spares
        self.queue = JobQueue()
        self.jobs: dict[str, Job] = {}
        self.running: list[Job] = []
        self.blocked: list[Job] = []
        #: total workers taken from elastic jobs by preemption (cumulative)
        self.preempted_workers = 0
        #: broken machines whose replacement has already been leased while
        #: their owning job(s) were still blocked on further machines
        self._leased_pending: set[int] = set()

    # -- submission --------------------------------------------------------
    def submit(self, job: Job, now: float = 0.0) -> None:
        if job.name in self.jobs:
            raise ConfigurationError(f"duplicate job name {job.name!r}")
        self.jobs[job.name] = job
        job.submit_time = now
        self.queue.push(job)

    # -- placement ---------------------------------------------------------
    def _free_slots_by_machine(self) -> dict[int, list[tuple[int, int]]]:
        by_machine: dict[int, list[tuple[int, int]]] = {}
        for slot in self.cluster.free_slots():
            by_machine.setdefault(slot[0], []).append(slot)
        return by_machine

    def pick_slots(self, num: int) -> list[tuple[int, int]] | None:
        """Failure-aware gang placement: spread across healthy machines.

        Machines are ordered by (failure_count, machine_id); slots are
        taken round-robin, one per machine per pass, so the gang lands on
        as many distinct low-failure machines as possible.
        """
        by_machine = self._free_slots_by_machine()
        order = sorted(
            by_machine,
            key=lambda m: (self.cluster.machine(m).failure_count, m),
        )
        if sum(len(v) for v in by_machine.values()) < num:
            return None
        picked: list[tuple[int, int]] = []
        while len(picked) < num:
            for m in order:
                if by_machine[m] and len(picked) < num:
                    picked.append(by_machine[m].pop(0))
        return picked

    # -- preemption --------------------------------------------------------
    def _preempt_for(self, job: Job) -> list[tuple[int, int]] | None:
        """Shrink lower-priority elastic jobs until ``job``'s gang fits."""
        free = len(self.cluster.free_slots())
        need = job.spec.num_workers - free
        victims = sorted(
            (
                j for j in self.running
                if j.spec.priority < job.spec.priority and j.shrinkable > 0
            ),
            key=lambda j: (j.spec.priority, j.submit_time),
        )
        if need > sum(j.shrinkable for j in victims):
            return None
        for victim in victims:
            if need <= 0:
                break
            take = min(need, victim.shrinkable)
            freed = victim.shrink(take)
            self.cluster.release_slots(freed, victim.owner_tag)
            self.preempted_workers += take
            need -= take
        return self.pick_slots(job.spec.num_workers)

    def restore(self) -> int:
        """Re-grow preempted elastic jobs from free capacity.

        Runs only when the queue is empty (queued gangs outrank
        restoration).  Higher-priority victims are restored first.
        Returns the number of workers given back.
        """
        if len(self.queue):
            return 0
        restored = 0
        for job in sorted(
            self.running,
            key=lambda j: (-j.spec.priority, j.submit_time),
        ):
            missing = job.missing_workers
            if missing == 0 or job.state != JobState.RUNNING:
                continue
            slots = self.pick_slots(min(missing, len(self.cluster.free_slots())))
            if not slots:
                continue
            self.cluster.reserve_slots(slots, job.owner_tag)
            job.grow(slots)
            restored += len(slots)
        return restored

    # -- the scheduling pass -----------------------------------------------
    def schedule(self, now: float = 0.0) -> list[Job]:
        """Start as many queued gangs as fit (head-of-line order)."""
        started: list[Job] = []
        while self.queue:
            job = self.queue.peek()
            slots = self.pick_slots(job.spec.num_workers)
            if slots is None:
                slots = self._preempt_for(job)
            if slots is None:
                break
            self.queue.pop()
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
                continue
            self.running.append(job)
            started.append(job)
        return started

    # -- completion --------------------------------------------------------
    def finish(self, job: Job, now: float = 0.0) -> None:
        """Release a completed job's slots and record its finish time."""
        self.cluster.release_owner(job.owner_tag)
        if job in self.running:
            self.running.remove(job)
        job.state = JobState.COMPLETED
        job.finish_time = now

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
        if not owners:
            # idle machine: either a spare or genuinely free capacity
            if self.spares is not None and self.spares.is_spare(machine_id):
                self.spares.fail_spare(machine_id)
            else:
                self.cluster.fail_machine(machine_id)
            return []
        if machine_id in self._leased_pending:
            spare = 0  # this machine's replacement is already secured
        else:
            spare = self.spares.lease(machine_id) if self.spares else 0
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
            if (
                self.spares is not None
                and self.spares.lease(machine_id) is None
            ):
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
        else:
            if job not in self.running:
                self.running.append(job)
        for machine_id in protected:
            machine = self.cluster.machine(machine_id)
            if machine.alive:
                machine.take_offline()
