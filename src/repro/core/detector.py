"""Failure detection via async communicator errors and a global flag.

Reproduces the paper's protocol (Section 6): every worker runs a background
thread polling ``ncclCommGetAsyncError()``; on error it sets a failure flag
in the global KV store (co-located with rank 0) and aborts its own
communicators; all other workers poll the flag and abort too.  Here the
protocol is collapsed into one charge, :data:`DETECTION_TIME` (which the
cost model prices too), plus the KV-store flag the engines already raise
on injected failures.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.clock import SimClock
from repro.cluster.kvstore import KVStore

__all__ = ["DETECTION_TIME", "DetectionReport", "FailureDetector"]

#: seconds from a crash to every worker having aborted its communicators,
#: charged by the engines and priced by the cost model
DETECTION_TIME = 0.1


@dataclass(frozen=True)
class DetectionReport:
    """Outcome of failure detection."""

    machine_id: int
    iteration: int
    #: simulated seconds from crash to all workers having aborted
    detection_time: float


class FailureDetector:
    """Protocol model of Swift's failure detection."""

    def __init__(self, kvstore: KVStore, clock: SimClock):
        self.kvstore = kvstore
        self.clock = clock

    def detect(self) -> DetectionReport:
        """Consume the raised failure flag, charging :data:`DETECTION_TIME`."""
        info = self.kvstore.failure_info()
        if info is None:
            raise RuntimeError("detect() called but no failure flag is set")
        self.clock.advance(DETECTION_TIME, "failure_detection",
                           machine=info["machine_id"])
        self.kvstore.clear_failure()
        return DetectionReport(
            machine_id=int(info["machine_id"]),
            iteration=int(info["iteration"]),
            detection_time=DETECTION_TIME,
        )
