"""TelemetryTrace: a versioned JSONL event stream of one observed run.

The observability counterpart of :class:`repro.chaos.FailureTrace`: one
header line (schema version + source + free-form metadata), one line per
:class:`TelemetryEvent`, read and written through the shared
:mod:`repro.utils.jsonl` codec.  Traces can be checked into version control
(``tests/traces/``), diffed, tailed live (``repro obs --follow``), and
exported to Chrome trace-event JSON, CSV, or a terminal summary
(:mod:`repro.obs.export`).

Every event carries *two* timelines:

* **wall** — ``time.perf_counter()`` seconds since the recorder's epoch:
  where the real CPU time of this reproduction goes;
* **sim** — :class:`~repro.cluster.clock.SimClock` seconds (``None``
  when the recorder has no clock bound): where the paper's modeled time
  goes — detection, rollback, replay, checkpoint stalls, communication.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError
from repro.utils.jsonl import (
    JsonlDocument,
    LogFormat,
    canonical_json,
    check_version,
    decode_json,
    dump_log,
)

__all__ = ["TELEMETRY_VERSION", "TelemetryEvent", "TelemetryTrace"]

#: bump when the JSONL schema changes; readers reject newer versions
TELEMETRY_VERSION = 1

#: event kinds understood by this telemetry version
EVENT_KINDS = ("span", "count", "gauge", "instant")


@dataclass(frozen=True)
class TelemetryEvent:
    """One recorded observation.

    ``kind`` selects the meaning:

    * ``"span"`` — a named interval (wall + sim start/duration);
    * ``"count"`` — a monotonic counter increment of ``value``;
    * ``"gauge"`` — a sampled level set to ``value``;
    * ``"instant"`` — a point event (no duration, no value).

    >>> e = TelemetryEvent(seq=0, kind="span", name="iteration",
    ...                    wall=0.5, wall_dur=0.01, sim=3.0, sim_dur=0.2)
    >>> TelemetryEvent.from_json(e.to_json()) == e
    True
    """

    seq: int
    kind: str
    name: str
    track: str = "main"
    #: wall-clock start, seconds since the recorder's epoch
    wall: float = 0.0
    wall_dur: float = 0.0
    #: simulated-clock start (``None`` when no sim clock was bound)
    sim: float | None = None
    sim_dur: float | None = None
    #: counter increment / gauge level (``None`` for spans and instants)
    value: float | None = None
    #: free-form attributes as sorted ``(key, value-string)`` pairs so
    #: events stay hashable and serialization stays order-independent
    attrs: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ConfigurationError(
                f"unknown telemetry event kind {self.kind!r}; "
                f"known: {EVENT_KINDS}"
            )
        if self.seq < 0:
            raise ConfigurationError("seq must be >= 0")
        if self.wall_dur < 0 or (self.sim_dur is not None and self.sim_dur < 0):
            raise ConfigurationError("durations must be >= 0")
        object.__setattr__(
            self, "attrs",
            tuple(sorted((str(k), str(v)) for k, v in self.attrs)),
        )

    @property
    def attrs_dict(self) -> dict[str, str]:
        return dict(self.attrs)

    def to_json(self) -> str:
        payload = {
            "seq": self.seq,
            "k": self.kind,
            "name": self.name,
            "track": self.track,
            "w": self.wall,
            "wd": self.wall_dur,
            "s": self.sim,
            "sd": self.sim_dur,
            "v": self.value,
            "attrs": dict(self.attrs),
        }
        return canonical_json(payload)

    @classmethod
    def from_json(cls, line: str) -> "TelemetryEvent":
        return cls.from_decoded(line, decode_json(line))

    @classmethod
    def from_decoded(cls, line: str, d: dict) -> "TelemetryEvent":
        """The event a decoded line holds (the ``LogFormat`` record)."""
        return cls(
            seq=int(d["seq"]),
            kind=str(d["k"]),
            name=str(d["name"]),
            track=str(d.get("track", "main")),
            wall=float(d.get("w", 0.0)),
            wall_dur=float(d.get("wd", 0.0)),
            sim=None if d.get("s") is None else float(d["s"]),
            sim_dur=None if d.get("sd") is None else float(d["sd"]),
            value=None if d.get("v") is None else float(d["v"]),
            attrs=tuple(sorted(
                (str(k), str(v))
                for k, v in dict(d.get("attrs", {})).items()
            )),
        )


def _header_fields(header: dict) -> dict:
    """The :class:`TelemetryTrace` fields a header line carries."""
    return dict(
        source=str(header.get("source", "unknown")),
        version=int(header["version"]),
        meta=tuple(dict(header.get("meta", {})).items()),
    )


@dataclass(frozen=True)
class TelemetryTrace(JsonlDocument):
    """The full event stream of one observed run.

    >>> e = TelemetryEvent(seq=0, kind="count", name="iterations", value=1.0)
    >>> trace = TelemetryTrace(source="demo", events=(e,))
    >>> restored = TelemetryTrace.from_jsonl(trace.to_jsonl())
    >>> restored == trace                    # byte-stable round trip
    True
    >>> restored.counter_totals()
    {'iterations': 1.0}
    """

    source: str
    events: tuple[TelemetryEvent, ...] = ()
    version: int = TELEMETRY_VERSION
    #: free-form run metadata (experiment name, batch size, scenario, ...)
    meta: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        check_version("telemetry", self.version, TELEMETRY_VERSION)
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(
            self, "meta",
            tuple(sorted((str(k), str(v)) for k, v in self.meta)),
        )

    # -- views ------------------------------------------------------------
    @property
    def meta_dict(self) -> dict[str, str]:
        return dict(self.meta)

    @property
    def spans(self) -> tuple[TelemetryEvent, ...]:
        return tuple(e for e in self.events if e.kind == "span")

    @property
    def counts(self) -> tuple[TelemetryEvent, ...]:
        return tuple(e for e in self.events if e.kind == "count")

    @property
    def gauges(self) -> tuple[TelemetryEvent, ...]:
        return tuple(e for e in self.events if e.kind == "gauge")

    @property
    def instants(self) -> tuple[TelemetryEvent, ...]:
        return tuple(e for e in self.events if e.kind == "instant")

    def spans_named(self, name: str) -> tuple[TelemetryEvent, ...]:
        return tuple(e for e in self.spans if e.name == name)

    def span_names(self) -> list[str]:
        """Distinct span names, in first-seen order."""
        seen: dict[str, None] = {}
        for e in self.spans:
            seen.setdefault(e.name, None)
        return list(seen)

    def total(self, name: str, timeline: str = "sim") -> float:
        """Summed duration of all spans named ``name`` on a timeline."""
        if timeline not in ("sim", "wall"):
            raise ConfigurationError(
                f"timeline must be 'sim' or 'wall', got {timeline!r}"
            )
        total = 0.0
        for e in self.spans_named(name):
            dur = e.sim_dur if timeline == "sim" else e.wall_dur
            if dur is not None:
                total += dur
        return total

    def counter_totals(self) -> dict[str, float]:
        """Final value of every counter (sum of recorded increments)."""
        totals: dict[str, float] = {}
        for e in self.counts:
            totals[e.name] = totals.get(e.name, 0.0) + (e.value or 0.0)
        return totals

    def last_gauges(self) -> dict[str, float]:
        """Most recent level of every gauge."""
        last: dict[str, float] = {}
        for e in self.gauges:
            if e.value is not None:
                last[e.name] = e.value
        return last

    def gauge_series(self, name: str) -> list[tuple[float | None, float]]:
        """``(sim_time, value)`` samples of one gauge, in record order."""
        return [
            (e.sim, e.value) for e in self.gauges
            if e.name == name and e.value is not None
        ]

    def recovery_breakdown(self) -> dict[str, float]:
        """Per-phase simulated seconds spent inside recovery paths.

        Sums the ``recovery/<phase>`` spans (detect, rollback, rejoin,
        replay) the trainer emits for every recovery; the totals add up
        to the run's ``TrainingTrace.recovery_time_total`` — the paper's
        recovery-time decomposition, straight from telemetry.
        """
        breakdown: dict[str, float] = {}
        for e in self.spans:
            if e.name.startswith("recovery/") and e.sim_dur is not None:
                phase = e.name[len("recovery/"):]
                breakdown[phase] = breakdown.get(phase, 0.0) + e.sim_dur
        return breakdown

    def with_meta(self, **kv: object) -> "TelemetryTrace":
        """Return a copy with extra metadata entries recorded."""
        merged = dict(self.meta)
        merged.update({str(k): str(v) for k, v in kv.items()})
        return replace(self, meta=tuple(sorted(merged.items())))

    # -- serialization ----------------------------------------------------
    _format = LogFormat("telemetry trace", TELEMETRY_VERSION,
                        header=_header_fields,
                        record=TelemetryEvent.from_decoded)

    def to_jsonl(self) -> str:
        header = {
            "version": self.version,
            "source": self.source,
            "meta": dict(self.meta),
        }
        return dump_log(header, (e.to_json() for e in self.events))
