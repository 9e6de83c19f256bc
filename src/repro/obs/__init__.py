"""repro.obs — spans, counters, and a versioned telemetry event stream.

The observability layer of the reproduction.  Instrumented components
(:class:`~repro.core.trainer.SwiftTrainer`, the DP/PP/FSDP engines,
:class:`~repro.sim.fleet.FleetSimulator`, and
:class:`repro.api.Session`) accept a :class:`Recorder`; the default
:data:`NULL_RECORDER` costs nothing and changes nothing, while a
:class:`TraceRecorder` captures every iteration phase, recovery phase,
counter, and gauge into a versioned :class:`TelemetryTrace` that
round-trips byte-stably through JSONL and exports to Chrome trace-event
JSON (Perfetto), CSV, or a terminal summary.

>>> from repro.obs import TraceRecorder, summarize_telemetry
>>> r = TraceRecorder()
>>> with r.span("demo/phase"):
...     r.count("iterations")
>>> print(summarize_telemetry(r.trace("quickstart")).splitlines()[0])
telemetry: quickstart (v1, 2 events)
"""

from repro.obs.export import (
    summarize_telemetry,
    telemetry_to_csv,
    to_chrome_trace,
    trace_to_csv,
)
from repro.obs.recorder import (
    NULL_RECORDER,
    JsonlSink,
    NullRecorder,
    Recorder,
    Span,
    TraceRecorder,
    record_recovery_phases,
)
from repro.obs.telemetry import (
    TELEMETRY_VERSION,
    TelemetryEvent,
    TelemetryTrace,
)

__all__ = [
    "TELEMETRY_VERSION",
    "TelemetryEvent",
    "TelemetryTrace",
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "TraceRecorder",
    "Span",
    "JsonlSink",
    "record_recovery_phases",
    "to_chrome_trace",
    "trace_to_csv",
    "telemetry_to_csv",
    "summarize_telemetry",
]
