"""FleetWalMirror: record a real FleetSimulator run into a serve WAL.

The control plane's sim mode makes scheduling *decisions* of its own;
this mirror instead **observes** the real machinery — the live
:class:`~repro.jobs.Scheduler`, :class:`~repro.jobs.SparePool`, and
engine-backed jobs inside a :class:`~repro.sim.FleetSimulator` — and
writes what it sees into the same WAL event vocabulary.  Replaying that
WAL through :class:`~repro.serve.ServeState` must reproduce the fleet's
accounting (per-job iterations, statuses, makespan, failure and
recovery counts), which is exactly what ``tests/test_serve.py``
asserts: the event log is rich enough to be the source of truth for the
real scheduler, not just for the simplified serve loop.

Emission points line up with the fleet round phases: arrivals →
``submit``; spare-pool repairs → ``reclaim``; machine failures →
``crash`` + ``lease``/``recover``/``fail``; placement diffs → ``place``
/ ``preempt`` / ``restore``; the step phase → one ``round`` event; and
completions → ``complete``.
"""

from __future__ import annotations

from repro.jobs.spec import Job, JobSpec
from repro.serve.wal import ServeEvent, WriteAheadLog

__all__ = ["FleetWalMirror"]

#: the single tenant a fleet run is recorded under
FLEET_TENANT = "fleet"


class FleetWalMirror:
    """Observes one fleet run and appends serve WAL events (see module).

    >>> from repro.serve.wal import WriteAheadLog
    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "fleet-wal.jsonl")
    >>> mirror = FleetWalMirror(WriteAheadLog(path, fsync=False))
    >>> mirror.wal.path == __import__("pathlib").Path(path)
    True
    >>> mirror.wal.close()
    """

    def __init__(self, wal: WriteAheadLog):
        self.wal = wal
        self._slots: dict[str, list[list[int]]] = {}
        self._leases_seen = 0

    def _log(self, kind: str, payload: dict) -> None:
        self.wal.append(ServeEvent(seq=self.wal.next_seq, kind=kind,
                                   payload=payload))

    # -- run lifecycle -----------------------------------------------------
    def start(self, *, num_machines: int, devices_per_machine: int,
              spares: list[int], repair_ticks: int,
              idle_time: float) -> None:
        self._log("init", {
            "num_machines": num_machines,
            "devices_per_machine": devices_per_machine,
            "spares": list(spares),
            "repair_ticks": repair_ticks,
            "iteration_time": 1.0,
            "idle_time": idle_time,
        })
        self._log("tenant", {"name": FLEET_TENANT})

    def arrival(self, spec: JobSpec) -> None:
        payload = spec.to_payload()
        payload["tenant"] = FLEET_TENANT
        self._log("submit", {"name": spec.name, "tenant": FLEET_TENANT,
                             "spec": payload})

    def reclaims(self, machines: list[int]) -> None:
        for machine in machines:
            self._log("reclaim", {"machine": int(machine)})

    def _drain_leases(self, spares) -> None:
        """Emit lease events for pool pairings we have not seen yet."""
        if spares is None:
            return
        for failed, spare in spares.lease_log[self._leases_seen:]:
            self._log("lease", {"machine": int(failed),
                                "spare": int(spare)})
        self._leases_seen = len(spares.lease_log)

    def failure(self, machine: int, owners: list[Job], was_spare: bool,
                jobs_after: dict[str, Job], spares, tag: str) -> None:
        """One routed machine failure, with its recovery fallout."""
        self._log("crash", {
            "machine": int(machine),
            "jobs": sorted(job.name for job in owners),
            "tag": tag,
            "spare": bool(was_spare),
        })
        self._drain_leases(spares)
        for job in owners:
            state = jobs_after[job.name].state.value
            if state == "running":
                self._log("recover", {"name": job.name})
            elif state == "failed":
                self._log("fail", {"name": job.name,
                                   "reason": "recovery impossible"})
                self._slots.pop(job.name, None)
            # blocked jobs recover later, via resumed()

    def resumed(self, running: list[str], failed: list[str],
                spares) -> None:
        """Blocked jobs settled after a repair completed."""
        self._drain_leases(spares)
        for name in sorted(running):
            self._log("recover", {"name": name})
        for name in sorted(failed):
            self._log("fail", {"name": name,
                               "reason": "recovery impossible"})
            self._slots.pop(name, None)

    def unplaceable(self, name: str, reason: str) -> None:
        """A queued job whose plan no grantable placement can run."""
        self._log("fail", {"name": name, "reason": reason})

    def placement_diff(self, jobs: dict[str, Job]) -> None:
        """Emit place/preempt/restore from observed slot changes.

        Only running/blocked jobs occupy cluster slots; a finished
        job's engine still remembers its placement, so other states are
        skipped rather than diffed.
        """
        for name, job in sorted(jobs.items()):
            if job.state.value not in ("running", "blocked"):
                continue
            now = [[int(m), int(d)] for m, d in job.current_slots()]
            prev = self._slots.get(name)
            if prev is None:
                if now:
                    self._log("place", {"name": name, "slots": now})
                    self._slots[name] = now
                continue
            if now == prev:
                continue
            removed = [s for s in prev if s not in now]
            added = [s for s in now if s not in prev]
            if removed and not added:
                self._log("preempt", {"name": name, "slots": removed})
            elif added and not removed:
                self._log("restore", {"name": name, "slots": added})
            else:
                self._log("restore", {"name": name, "slots": now,
                                      "sync": True})
            self._slots[name] = now

    def round(self, rnd: int, dt: float, stepped: list[str]) -> None:
        self._log("round", {"round": int(rnd), "dt": float(dt),
                            "stepped": sorted(stepped)})

    def complete(self, name: str) -> None:
        self._log("complete", {"name": name})
        self._slots.pop(name, None)
