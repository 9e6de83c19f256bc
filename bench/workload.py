"""What every workload hands back to the runner."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from bench.spans import SpanLog


class BenchTimeout(Exception):
    """A workload outran its wall-clock budget (recorded as a failure)."""


@dataclass
class Round:
    """One pass over a workload's fixed work."""

    setup_s: float
    run_s: float
    #: latencies of the workload's operation (catalog.OPERATION), seconds
    ops: list[float]
    #: recovery walls (catalog.RECOVERY), seconds
    recoveries: list[float]
    attempted: int
    failed: int = 0
    #: one line per failed operation or oracle check
    errors: list[str] = field(default_factory=list)
    #: must be identical between the rounds of one run
    digest: str = ""
    #: further untraced sample populations, seconds, keyed by the per-layer
    #: metric (in ms) their median becomes
    extra: dict[str, list[float]] = field(default_factory=dict)
    #: per-layer counts that must repeat bit for bit
    exact: dict[str, float] = field(default_factory=dict)
    #: per-layer timings of a traced round
    layer: dict[str, float] = field(default_factory=dict)
    spans: SpanLog | None = None

    def check(self, ok: bool, message: str) -> None:
        """Count one oracle check; record ``message`` when it fails."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(message)


class Deadline:
    """Wall-clock budget checked inside every workload loop."""

    def __init__(self, seconds: float):
        self.at = time.perf_counter() + seconds

    def check(self) -> None:
        if time.perf_counter() > self.at:
            raise BenchTimeout("workload exceeded its wall-clock budget")
