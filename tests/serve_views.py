"""The serve scheduling views, recomputed from the job table.

``ServeState`` answers ``free_slots``, ``tenant_usage`` and the other
scheduling views from indexes that ``apply`` keeps.  The functions here
are the O(jobs) bodies those views had before the indexes: a scan of
``state.jobs`` and ``state.queue`` on every call.  They are the oracle
the indexed answers must equal after every event.
"""

from __future__ import annotations

from repro.jobs.placement import head_of_line
from repro.serve.server import _head
from repro.serve.state import ACTIVE_STATUSES, JOB_STATUSES

#: multi-status queries the server makes
STATUS_QUERIES = tuple((s,) for s in JOB_STATUSES) + (
    ("running", "blocked"),
    ("completed", "failed", "rejected", "shed"),
)


def _tenants(state) -> list[str]:
    return sorted(set(state.tenants)
                  | {job["tenant"] for job in state.jobs.values()})


def recomputed_head(state) -> dict:
    """The queued job to place next, ranked over the whole queue."""
    queued = [state.jobs[name] for name in state.queue]
    reserved = [job for job in queued if job["reserved_slots"]]
    if reserved:
        return min(reserved, key=lambda job: job["submitted_seq"])
    usage = {
        tenant: recomputed_usage(state, tenant)
        / state.tenants[tenant]["share"]
        for tenant in {job["tenant"] for job in queued}
    }
    return head_of_line(
        (job, usage[job["tenant"]], int(job["spec"].get("priority", 0)),
         job["submitted_seq"])
        for job in queued
    )


def indexed_head(state) -> dict:
    """The head the server's placement phase picks from ``state``."""
    return _head(state)


def recomputed_usage(state, tenant: str) -> int:
    return sum(
        len(job["slots"]) for job in state.jobs.values()
        if job["tenant"] == tenant and job["status"] == "running"
    )


def recomputed_pending(state, tenant: str) -> int:
    return sum(1 for name in state.queue
               if state.jobs[name]["tenant"] == tenant)


def recomputed_views(state) -> dict:
    """Every scheduling view, by a scan of the job table."""
    jobs = state.jobs
    occupied: set[tuple[int, int]] = set()
    for job in jobs.values():
        if job["status"] in ("running", "blocked"):
            occupied.update((m, d) for m, d in job["slots"])
    dev = state.config.get("devices_per_machine", 0)
    counts: dict[str, int] = {}
    for job in jobs.values():
        counts[job["status"]] = counts.get(job["status"], 0) + 1
    tenants = _tenants(state)
    return {
        "occupied_slots": occupied,
        "free_slots": [
            (m, d) for m in state.schedulable_machines()
            for d in range(dev) if (m, d) not in occupied
        ],
        "tenant_usage": {t: recomputed_usage(state, t) for t in tenants},
        "tenant_demand": {
            t: sum(int(job["spec"].get("num_workers", 1))
                   for job in jobs.values()
                   if job["tenant"] == t
                   and job["status"] in ACTIVE_STATUSES)
            for t in tenants
        },
        "pending_count": {t: recomputed_pending(state, t)
                          for t in tenants},
        "jobs_with_status": {
            q: [job["name"] for _, job in sorted(jobs.items())
                if job["status"] in q]
            for q in STATUS_QUERIES
        },
        "all_done": not any(
            job["status"] in ACTIVE_STATUSES for job in jobs.values()),
        "summary_jobs": counts,
        "reserved_jobs": sorted(name for name in state.queue
                                if jobs[name]["reserved_slots"]),
        "tenant_heads": sorted(
            min((jobs[name] for name in state.queue
                 if jobs[name]["tenant"] == t),
                key=lambda job: (-int(job["spec"].get("priority", 0)),
                                 job["submitted_seq"]))["name"]
            for t in tenants if recomputed_pending(state, t)),
        "head": recomputed_head(state)["name"] if state.queue else None,
    }


def indexed_views(state) -> dict:
    """The same views, through ``ServeState``'s own (indexed) methods."""
    tenants = _tenants(state)
    return {
        "occupied_slots": state.occupied_slots(),
        "free_slots": state.free_slots(),
        "tenant_usage": {t: state.tenant_usage(t) for t in tenants},
        "tenant_demand": {t: state.tenant_demand(t) for t in tenants},
        "pending_count": {t: state.pending_count(t) for t in tenants},
        "jobs_with_status": {
            q: [job["name"] for job in state.jobs_with_status(*q)]
            for q in STATUS_QUERIES
        },
        "all_done": state.all_done(),
        "summary_jobs": state.summary()["jobs"],
        "reserved_jobs": sorted(job["name"]
                                for job in state.reserved_jobs()),
        "tenant_heads": sorted(job["name"] for job in state.tenant_heads()),
        "head": indexed_head(state)["name"] if state.queue else None,
    }


def assert_views_match(state) -> dict:
    """Assert indexed == recomputed; returns the views."""
    views = indexed_views(state)
    expected = recomputed_views(state)
    assert views == expected, {
        key: (views[key], expected[key])
        for key in views if views[key] != expected[key]
    }
    return views
