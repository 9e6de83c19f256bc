"""FailureTrace: a versioned, seed-stamped record/replay format.

Every stochastic chaos run records the exact failure events it injected
as a :class:`FailureTrace` — a small JSONL document (one header line,
one line per event) that can be checked into version control
(``tests/traces/``) and replayed later.  Replaying a trace feeds the
*identical* event sequence back into the engines, so a run driven by a
trace is bitwise-deterministic: same losses, same recovery reports, same
goodput.

The format is versioned (:data:`TRACE_VERSION`) and goes through the
shared :mod:`repro.utils.jsonl` codec: plain canonical JSON, so
``to_jsonl`` -> ``from_jsonl`` -> ``to_jsonl`` is byte-stable.

Events carry both a continuous timestamp (``time_hours``, what the
failure process sampled) and a discrete ``iteration`` (what the engines
and the fleet simulator consume).  :meth:`FailureTrace.with_iterations`
maps the former onto the latter for a chosen horizon; the mapping is
stored in the trace so replay never has to recompute it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from repro.cluster.failures import FailureEvent, FailurePhase, FailureSchedule
from repro.errors import ConfigurationError
from repro.utils.jsonl import (
    JsonlDocument,
    LogFormat,
    canonical_json,
    check_version,
    decode_json,
    dump_log,
)

__all__ = ["TRACE_VERSION", "ChaosEvent", "FailureTrace"]

#: bump when the JSONL schema changes; readers reject newer versions
TRACE_VERSION = 1

#: event kinds understood by this trace version
EVENT_KINDS = ("crash", "straggler", "storage_outage")


@dataclass(frozen=True)
class ChaosEvent:
    """One sampled chaos event.

    ``kind`` selects the consumer-side meaning:

    * ``"crash"`` — fail-stop machine failure (all consumers);
    * ``"straggler"`` — the machine slows down by factor ``magnitude``
      from ``time_hours`` onward (analytic goodput evaluation);
    * ``"storage_outage"`` — the global checkpoint store is unavailable
      for ``magnitude`` hours starting at ``time_hours`` (analytic
      goodput evaluation).

    >>> ChaosEvent(time_hours=2.5, machine_id=1).kind
    'crash'
    """

    #: continuous timestamp sampled by the failure process
    time_hours: float
    machine_id: int
    kind: str = "crash"
    #: discrete engine iteration / fleet round (assigned by
    #: :meth:`FailureTrace.with_iterations`); ``None`` = unmapped
    iteration: int | None = None
    #: where in the iteration the crash lands (FailurePhase value)
    phase: str = FailurePhase.ITERATION_START.value
    #: MID_UPDATE only: parameters already updated when the crash hit
    after_updates: int = 0
    #: straggler slowdown factor / storage outage duration in hours
    magnitude: float = 0.0
    #: INSTRUCTION phase only: the pipeline instruction op name at whose
    #: boundary the crash lands (e.g. "SendGrad"); ``None`` otherwise
    instruction: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ConfigurationError(
                f"unknown chaos event kind {self.kind!r}; "
                f"known: {EVENT_KINDS}"
            )
        try:
            FailurePhase(self.phase)
        except ValueError:
            raise ConfigurationError(
                f"unknown failure phase {self.phase!r}; expected "
                f"{[p.value for p in FailurePhase]}"
            ) from None
        if self.phase == FailurePhase.INSTRUCTION.value:
            from repro.parallel.instructions import INSTRUCTION_OPS

            if self.instruction not in INSTRUCTION_OPS:
                raise ConfigurationError(
                    f"instruction-phase events need an instruction from "
                    f"{INSTRUCTION_OPS}; got {self.instruction!r}"
                )
        elif self.instruction is not None:
            raise ConfigurationError(
                f"instruction={self.instruction!r} requires "
                f"phase={FailurePhase.INSTRUCTION.value!r} "
                f"(got {self.phase!r})"
            )
        if self.time_hours < 0:
            raise ConfigurationError("time_hours must be >= 0")
        if self.machine_id < 0:
            raise ConfigurationError("machine_id must be >= 0")

    def to_json(self) -> str:
        payload = {
            "t": self.time_hours,
            "machine": self.machine_id,
            "kind": self.kind,
            "iteration": self.iteration,
            "phase": self.phase,
            "after_updates": self.after_updates,
            "magnitude": self.magnitude,
        }
        # conditional so pre-existing traces stay byte-stable
        if self.instruction is not None:
            payload["instruction"] = self.instruction
        return canonical_json(payload)

    @classmethod
    def from_json(cls, line: str) -> "ChaosEvent":
        return cls.from_decoded(line, decode_json(line))

    @classmethod
    def from_decoded(cls, line: str, d: dict) -> "ChaosEvent":
        """The event a decoded line holds (the ``LogFormat`` record)."""
        return cls(
            time_hours=float(d["t"]),
            machine_id=int(d["machine"]),
            kind=str(d["kind"]),
            iteration=(
                None if d.get("iteration") is None else int(d["iteration"])
            ),
            phase=str(d.get("phase", FailurePhase.ITERATION_START.value)),
            after_updates=int(d.get("after_updates", 0)),
            magnitude=float(d.get("magnitude", 0.0)),
            instruction=(
                None if d.get("instruction") is None
                else str(d["instruction"])
            ),
        )


def _header_fields(header: dict) -> dict:
    """The :class:`FailureTrace` fields a header line carries."""
    return dict(
        scenario=str(header["scenario"]),
        seed=int(header["seed"]),
        num_machines=int(header["num_machines"]),
        horizon_hours=float(header["horizon_hours"]),
        horizon_iters=(
            None if header.get("horizon_iters") is None
            else int(header["horizon_iters"])
        ),
        version=int(header["version"]),
        meta=tuple(dict(header.get("meta", {})).items()),
    )


@dataclass(frozen=True)
class FailureTrace(JsonlDocument):
    """A replayable record of every chaos event of one run.

    >>> from repro.chaos import get_scenario
    >>> trace = get_scenario("steady_mtbf").sample(seed=0, num_machines=4)
    >>> trace2 = get_scenario("steady_mtbf").sample(seed=0, num_machines=4)
    >>> trace == trace2                      # same seed -> identical trace
    True
    >>> restored = FailureTrace.from_jsonl(trace.to_jsonl())
    >>> restored == trace                    # byte-stable round trip
    True
    """

    scenario: str
    seed: int
    num_machines: int
    horizon_hours: float
    events: tuple[ChaosEvent, ...] = ()
    #: engine-iteration horizon the events were mapped onto (if any)
    horizon_iters: int | None = None
    version: int = TRACE_VERSION
    #: free-form run metadata (recorded goodput, run config, ...) as a
    #: sorted tuple of (key, value-string) pairs so the trace stays
    #: hashable and order-independent
    meta: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        check_version("trace", self.version, TRACE_VERSION)
        if self.num_machines < 1:
            raise ConfigurationError("num_machines must be >= 1")
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(
            self, "meta", tuple(sorted((str(k), str(v))
                                       for k, v in self.meta))
        )

    # -- views ------------------------------------------------------------
    @property
    def meta_dict(self) -> dict[str, str]:
        return dict(self.meta)

    @property
    def crashes(self) -> tuple[ChaosEvent, ...]:
        return tuple(e for e in self.events if e.kind == "crash")

    @property
    def stragglers(self) -> tuple[ChaosEvent, ...]:
        return tuple(e for e in self.events if e.kind == "straggler")

    @cached_property
    def walk_order(self) -> tuple[tuple[float, int, float], ...]:
        """``(seconds, kind rank, magnitude)`` per event in the analytic
        walk's order, sorted once per trace (cached outside equality,
        hashing and JSONL).  Time-ordered; ties: outages (rank 0) first
        so a simultaneous crash already sees the window, then stragglers
        (1), then crashes (2), then by machine."""
        rank = {"storage_outage": 0, "straggler": 1, "crash": 2}
        return tuple(
            (e.time_hours * 3600.0, rank[e.kind], e.magnitude)
            for e in sorted(self.events, key=lambda e: (
                e.time_hours, rank[e.kind], e.machine_id)))

    def with_meta(self, **kv: object) -> "FailureTrace":
        """Return a copy with extra metadata entries recorded."""
        merged = dict(self.meta)
        merged.update({str(k): str(v) for k, v in kv.items()})
        return replace(self, meta=tuple(sorted(merged.items())))

    # -- iteration mapping ------------------------------------------------
    def with_iterations(self, horizon_iters: int) -> "FailureTrace":
        """Map continuous event times onto a discrete iteration horizon.

        The run's ``horizon_iters`` iterations are laid out uniformly
        over ``horizon_hours``; each event lands on the iteration its
        timestamp falls into.  Events that already carry an explicit
        iteration (scripted drills) keep it.  The mapping is recorded in
        the returned trace so replay consumes the stored iterations
        verbatim.
        """
        if horizon_iters < 1:
            raise ConfigurationError("horizon_iters must be >= 1")
        mapped = []
        for e in self.events:
            if e.iteration is not None:
                mapped.append(e)
                continue
            frac = min(e.time_hours / self.horizon_hours, 1.0)
            it = min(int(frac * horizon_iters), horizon_iters - 1)
            mapped.append(replace(e, iteration=it))
        return replace(self, events=tuple(mapped),
                       horizon_iters=horizon_iters)

    def after_iteration(self, start: int) -> "FailureTrace":
        """Copy containing only events mapped at or after ``start``.

        Continuation runs (``Session.run`` on an engine that has already
        trained to ``start``) use this so the recorded trace holds
        exactly the events the run could still experience.
        """
        return replace(self, events=tuple(
            e for e in self.events
            if e.iteration is None or e.iteration >= start
        ))

    # -- engine/fleet consumption -----------------------------------------
    def to_schedule(self, leave_alive: int = 1) -> FailureSchedule:
        """Lower crash events into an engine-level :class:`FailureSchedule`.

        Only ``"crash"`` events participate (the engines have no notion
        of stragglers or storage outages).  Per iteration, duplicate
        crashes of one machine collapse, and at most
        ``num_machines - leave_alive`` machines fail so at least
        ``leave_alive`` survivor(s) exist for recovery to restore from.
        """
        if any(e.iteration is None for e in self.crashes):
            raise ConfigurationError(
                "trace has unmapped events; call with_iterations() first "
                "(or load a trace that recorded its iteration mapping)"
            )
        per_iter: dict[int, list[ChaosEvent]] = {}
        for e in self.crashes:
            bucket = per_iter.setdefault(e.iteration, [])
            if all(b.machine_id != e.machine_id for b in bucket):
                bucket.append(e)
        events: list[FailureEvent] = []
        cap = max(1, self.num_machines - max(0, leave_alive))
        for it in sorted(per_iter):
            for e in per_iter[it][:cap]:
                events.append(FailureEvent(
                    machine_id=e.machine_id,
                    iteration=it,
                    phase=FailurePhase(e.phase),
                    after_updates=e.after_updates,
                    instruction=e.instruction,
                ))
        return FailureSchedule(events)

    def to_fleet_failures(self) -> list:
        """Lower crash events into fleet-round failures.

        Returns :class:`repro.sim.FleetFailure` rows (iteration ==
        fleet round: every round steps each running job one iteration).
        """
        from repro.sim.fleet import FleetFailure

        if any(e.iteration is None for e in self.crashes):
            raise ConfigurationError(
                "trace has unmapped events; call with_iterations() first"
            )
        seen: set[tuple[int, int]] = set()
        rows = []
        for e in self.crashes:
            key = (e.iteration, e.machine_id)
            if key in seen:
                continue
            seen.add(key)
            rows.append(FleetFailure(round=e.iteration,
                                     machine_id=e.machine_id))
        return sorted(rows, key=lambda f: (f.round, f.machine_id))

    # -- serialization ----------------------------------------------------
    _format = LogFormat("failure trace", TRACE_VERSION,
                        header=_header_fields, record=ChaosEvent.from_decoded)

    def to_jsonl(self) -> str:
        header = {
            "version": self.version,
            "scenario": self.scenario,
            "seed": self.seed,
            "num_machines": self.num_machines,
            "horizon_hours": self.horizon_hours,
            "horizon_iters": self.horizon_iters,
            "meta": dict(self.meta),
        }
        return dump_log(header, (e.to_json() for e in self.events))
