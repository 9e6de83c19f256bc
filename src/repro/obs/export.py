"""Exporters: telemetry → Chrome trace JSON, CSV, terminal summary.

``to_chrome_trace`` emits the Trace Event Format consumed by Perfetto
(https://ui.perfetto.dev) and ``chrome://tracing`` — drag the file in
and every span, counter, and instant lands on a labeled track.
``trace_to_csv`` writes a trainer's per-iteration rows, and
``telemetry_to_csv`` reconstructs the same rows from the trainer's
iteration spans.  ``summarize_telemetry`` renders the terminal report
behind ``repro obs``.
"""

from __future__ import annotations

import csv
import io
import json

from repro.errors import ConfigurationError
from repro.obs.telemetry import TelemetryTrace

__all__ = ["to_chrome_trace", "trace_to_csv", "telemetry_to_csv",
           "summarize_telemetry"]

_TIMELINES = ("wall", "sim")


def _coords(event, timeline: str) -> tuple[float, float] | None:
    """(start, duration) of an event on a timeline, or None if absent."""
    if timeline == "wall":
        return event.wall, event.wall_dur
    if event.sim is None:
        return None
    return event.sim, event.sim_dur if event.sim_dur is not None else 0.0


def to_chrome_trace(trace: TelemetryTrace, timeline: str = "wall") -> str:
    """Serialize a telemetry trace as Chrome trace-event JSON.

    ``timeline`` selects which clock drives the horizontal axis:
    ``"wall"`` (default, real CPU seconds) or ``"sim"`` (the simulated
    cluster clock — the paper's time axis; events recorded without a
    bound sim clock are omitted there).

    >>> from repro.obs import TraceRecorder
    >>> r = TraceRecorder()
    >>> with r.span("demo/work"):
    ...     r.count("items", 2)
    >>> doc = json.loads(to_chrome_trace(r.trace("doctest")))
    >>> sorted({e["ph"] for e in doc["traceEvents"]})
    ['C', 'M', 'X']
    """
    if timeline not in _TIMELINES:
        raise ConfigurationError(
            f"timeline must be one of {_TIMELINES}, got {timeline!r}"
        )
    pid = 1
    tids: dict[str, int] = {}
    events: list[dict] = [{
        "ph": "M", "pid": pid, "name": "process_name",
        "args": {"name": f"repro:{trace.source}"},
    }]

    def tid_for(track: str) -> int:
        if track not in tids:
            tids[track] = len(tids) + 1
            events.append({
                "ph": "M", "pid": pid, "tid": tids[track],
                "name": "thread_name", "args": {"name": track},
            })
        return tids[track]

    for e in trace.events:
        coords = _coords(e, timeline)
        if coords is None:
            continue
        ts, dur = coords
        tid = tid_for(e.track)
        args = dict(e.attrs)
        if e.kind == "span":
            events.append({
                "ph": "X", "pid": pid, "tid": tid, "name": e.name,
                "ts": ts * 1e6, "dur": dur * 1e6, "args": args,
            })
        elif e.kind in ("count", "gauge"):
            events.append({
                "ph": "C", "pid": pid, "tid": tid, "name": e.name,
                "ts": ts * 1e6, "args": {"value": e.value or 0.0},
            })
        else:  # instant
            events.append({
                "ph": "i", "pid": pid, "tid": tid, "name": e.name,
                "ts": ts * 1e6, "s": "t", "args": args,
            })

    return json.dumps(
        {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(trace.meta),
        },
        sort_keys=True,
    )


def trace_to_csv(trace, samples_per_iteration: int) -> str:
    """Serialize per-iteration rows (iteration, loss, time, throughput)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["iteration", "loss", "sim_time_s", "throughput"])
    for it, loss, t in zip(trace.iteration_numbers, trace.losses,
                           trace.iteration_times):
        writer.writerow([
            it, f"{loss:.8f}", f"{t:.6f}",
            f"{samples_per_iteration / t:.3f}" if t else "0",
        ])
    return buf.getvalue()


def telemetry_to_csv(trace: TelemetryTrace,
                     samples_per_iteration: int | None = None) -> str:
    """Per-iteration CSV rows reconstructed from ``trainer/iteration`` spans.

    Pulls iteration number and loss out of each span's attributes and the
    iteration time from its sim duration, then delegates row formatting
    to :func:`trace_to_csv`.  When
    ``samples_per_iteration`` is not given it falls back to the trace's
    ``batch_size`` metadata (1 if absent).

    >>> from repro.obs import TraceRecorder
    >>> r = TraceRecorder()
    >>> r.span_at("trainer/iteration", sim=0.0, sim_dur=0.5,
    ...           iteration=0, loss=1.25)
    >>> print(telemetry_to_csv(r.trace("doctest"), 16).strip())
    iteration,loss,sim_time_s,throughput
    0,1.25000000,0.500000,32.000
    """
    # imported lazily: repro.core.trainer itself imports repro.obs
    from repro.core.trainer import TrainingTrace

    numbers: list[int] = []
    losses: list[float] = []
    times: list[float] = []
    for e in trace.spans_named("trainer/iteration"):
        attrs = e.attrs_dict
        if "iteration" not in attrs:
            continue
        numbers.append(int(attrs["iteration"]))
        losses.append(float(attrs.get("loss", "nan")))
        times.append(e.sim_dur if e.sim_dur is not None else e.wall_dur)
    if samples_per_iteration is None:
        samples_per_iteration = int(
            float(trace.meta_dict.get("batch_size", "1"))
        )
    rebuilt = TrainingTrace(
        losses=losses, iteration_times=times, iteration_numbers=numbers
    )
    return trace_to_csv(rebuilt, samples_per_iteration)


def _fmt_seconds(x: float) -> str:
    return f"{x:12.6f}"


def summarize_telemetry(trace: TelemetryTrace) -> str:
    """Render the terminal summary printed by ``repro obs``.

    >>> from repro.obs import TraceRecorder
    >>> r = TraceRecorder()
    >>> r.count("iterations", 3)
    >>> print(summarize_telemetry(r.trace("doctest")).splitlines()[0])
    telemetry: doctest (v1, 1 events)
    """
    lines = [
        f"telemetry: {trace.source} "
        f"(v{trace.version}, {len(trace.events)} events)"
    ]
    if trace.meta:
        lines.append("meta:")
        for k, v in trace.meta:
            lines.append(f"  {k}: {v}")

    spans = trace.spans
    if spans:
        lines += ["", f"{'span':<28} {'count':>6} {'sim_s':>12} "
                      f"{'wall_s':>12}"]
        for name in trace.span_names():
            named = trace.spans_named(name)
            lines.append(
                f"{name:<28} {len(named):>6} "
                f"{_fmt_seconds(trace.total(name, 'sim'))} "
                f"{_fmt_seconds(trace.total(name, 'wall'))}"
            )

    breakdown = trace.recovery_breakdown()
    if breakdown:
        total = sum(breakdown.values())
        lines += ["", "recovery breakdown (sim seconds):"]
        for phase, dur in sorted(
            breakdown.items(), key=lambda kv: -kv[1]
        ):
            share = dur / total if total > 0 else 0.0
            lines.append(
                f"  {phase:<10} {_fmt_seconds(dur)}  ({share:6.1%})"
            )
        lines.append(f"  {'total':<10} {_fmt_seconds(total)}")

    totals = trace.counter_totals()
    if totals:
        lines += ["", "counters:"]
        for name in sorted(totals):
            value = totals[name]
            shown = int(value) if value == int(value) else value
            lines.append(f"  {name:<28} {shown}")

    gauges = trace.last_gauges()
    if gauges:
        lines += ["", "gauges (last value):"]
        for name in sorted(gauges):
            lines.append(f"  {name:<28} {gauges[name]:g}")

    return "\n".join(lines)
