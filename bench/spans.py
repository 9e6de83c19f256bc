"""Spans recorded from the benchmark's side, and their analysis.

A traced round wraps the public methods at each layer boundary (listed
in ``*_BOUNDARIES`` below) with a timer that appends ``(name, start,
end, attrs)`` to a :class:`SpanLog`; ``repro.obs.TraceRecorder`` spans
are folded into the same log.  Parents are recovered afterwards from
interval nesting (runs are single-threaded, or closed-loop with the one
server thread working only while the client waits), so recording costs
two clock reads and one append.  Self time = span - covered children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path

_clock = time.perf_counter


class SpanLog:
    """In-memory spans of one traced round."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        #: [name, start, end, attrs-or-None]
        self.rows: list[list] = []
        self.counts: dict[str, float] = {}
        self._nested: tuple[int, list[dict]] = (0, [])

    def add(self, name: str, start: float, end: float,
            attrs: dict | None = None) -> None:
        self.rows.append([name, start, end, attrs])

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    # -- TraceRecorder bridge ------------------------------------------------
    def recorder(self):
        """A ``TraceRecorder`` whose wall-clock spans land in this log."""
        from repro.obs import TraceRecorder

        epoch = _clock()
        rec = TraceRecorder()

        def on_event(event) -> None:
            # recovery/* spans are synthetic sim-time spans (no wall width)
            if event.kind == "span" and not event.name.startswith("recovery/"):
                start = epoch + event.wall
                self.rows.append([event.name, start,
                                  start + event.wall_dur,
                                  event.attrs_dict or None])
            elif event.kind == "gauge":
                key = "max:" + event.name
                self.counts[key] = max(self.counts.get(key, 0.0), event.value)
            self.count("obs.events")

        rec.subscribe(on_event)
        return rec

    # -- analysis ------------------------------------------------------------
    def durations(self, name: str) -> list[float]:
        return [r[2] - r[1] for r in self.rows if r[0] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def named(self, name: str) -> list[list]:
        return [r for r in self.rows if r[0] == name]

    def nested(self) -> list[dict]:
        """Rows sorted by start with ``id``, ``parent`` and ``self`` time."""
        if self._nested[0] == len(self.rows):
            return self._nested[1]
        order = sorted(range(len(self.rows)),
                       key=lambda i: (self.rows[i][1], -self.rows[i][2]))
        out: list[dict] = []
        stack: list[dict] = []
        for i in order:
            name, start, end, attrs = self.rows[i]
            while stack and stack[-1]["end"] < end:
                stack.pop()
            node = {"id": len(out), "name": name, "start": start,
                    "end": end, "attrs": attrs, "run": self.run_id,
                    "parent": stack[-1]["id"] if stack else None,
                    "self": end - start}
            if stack:
                stack[-1]["self"] -= end - start
            out.append(node)
            stack.append(node)
        for node in out:  # clock granularity can leave a hair below zero
            node["self"] = max(0.0, node["self"])
        self._nested = (len(self.rows), out)
        return out

    def self_time_by_layer(self) -> dict[str, float]:
        """Sum of span self time per layer (see :func:`layer_of`)."""
        layers: dict[str, float] = {}
        for node in self.nested():
            layer = layer_of(node["name"])
            layers[layer] = layers.get(layer, 0.0) + node["self"]
        return layers

    def owner(self, node: dict, names: tuple[str, ...]) -> dict | None:
        """Nearest ancestor of ``node`` whose name is in ``names``."""
        nodes = self.nested()
        up = node["parent"]
        while up is not None and nodes[up]["name"] not in names:
            up = nodes[up]["parent"]
        return None if up is None else nodes[up]

    def child_total(self, parent_name: str, child_name: str) -> list[float]:
        """Per ``parent_name`` span, the time its ``child_name`` descendants cover."""
        nodes = self.nested()
        covered = {n["id"]: 0.0 for n in nodes if n["name"] == parent_name}
        for n in nodes:
            if n["name"] == child_name:
                parent = self.owner(n, (parent_name,))
                if parent is not None:
                    covered[parent["id"]] += n["end"] - n["start"]
        return list(covered.values())

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for node in self.nested():
                fh.write(json.dumps(node, sort_keys=True) + "\n")


#: recorder span names -> layer; everything else is ``<layer>.<what>``
_RECORDER_LAYERS = {
    "engine/forward_backward": "nn",
    "engine/optimizer": "optim",
    "engine/allreduce": "comm",
    "engine/schedule": "parallel",
    "checkpoint/capture": "core",
    "checkpoint/persist": "core",
    "trainer/iteration": "parallel",   # engine glue outside engine/* spans
    "trainer/recovery": "core",
    "serve/tick": "serve",
}


def layer_of(span_name: str) -> str:
    """The layer a span's self time is charged to (``harness`` = nobody)."""
    if span_name in _RECORDER_LAYERS:
        return _RECORDER_LAYERS[span_name]
    return span_name.split(".", 1)[0].split("/", 1)[0]


# -- installing wrappers ------------------------------------------------------

def _timed(log: SpanLog, name: str, fn, attrs_fn=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = _clock()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = _clock()
            log.rows.append([
                name, start, end,
                attrs_fn(args, kwargs, result) if attrs_fn else None,
            ])
    return wrapper


def train_boundaries() -> list[tuple]:
    from repro.cluster.storage import GlobalStore
    from repro.comm.p2p import Transport
    from repro.core.checkpoint import CheckpointManager
    from repro.core.tlog import TensorLog
    from repro.parallel.pipeline import PipelineStage
    from repro.utils.cow import StateView
    from repro.utils.pool import BufferPool

    def sent_bytes(args, kwargs, result):
        return {"bytes": int(args[3].nbytes)}

    def stored_bytes(args, kwargs, result):
        return {"bytes": int(kwargs.get("nbytes", args[2] if len(args) > 2 else 0))}

    return [
        (Transport, "send", "comm.p2p_send", sent_bytes),
        (Transport, "recv", "comm.p2p_recv", None),
        (Transport, "recv_matching", "comm.p2p_recv_matching", None),
        (PipelineStage, "forward_mb", "parallel.stage_compute", None),
        (PipelineStage, "backward_mb", "parallel.stage_compute", None),
        (PipelineStage, "step", "parallel.stage_step", None),
        (TensorLog, "tap", "core.tlog_tap", None),
        (TensorLog, "gc", "core.tlog_gc", None),
        (CheckpointManager, "load", "core.ckpt_load", None),
        (GlobalStore, "upload", "cluster.store_upload", stored_bytes),
        (GlobalStore, "download", "cluster.store_download", None),
        (BufferPool, "capture", "utils.pool_capture", None),
        (StateView, "of", "utils.cow_capture", None),
    ]


def serve_boundaries() -> list[tuple]:
    import repro.serve.protocol as protocol
    from repro.serve.client import LoopbackTransport, TcpTransport
    from repro.serve.segments import SegmentedWriteAheadLog
    from repro.serve.server import ServeServer
    from repro.serve.state import ServeState
    from repro.serve.wal import WriteAheadLog

    def request_op(args, kwargs, result):
        return {"op": str(args[1].get("op", ""))}

    def queue_depth(args, kwargs, result):
        return {"queue": len(args[0].state.queue)}

    def event_bytes(args, kwargs, result):
        return {"bytes": len(args[1].to_json()) + 1}

    def snapshot_bytes(args, kwargs, result):
        return {"bytes": len(result) if result else 0}

    return [
        (TcpTransport, "send", "serve.transport_send", None),
        (LoopbackTransport, "send", "serve.transport_send", None),
        (protocol, "handle_request", "serve.handle_request", request_op),
        (ServeServer, "submit", "serve.submit_core", None),
        (ServeServer, "tick", "serve.tick", queue_depth),
        (WriteAheadLog, "append", "serve.wal_append", event_bytes),
        (SegmentedWriteAheadLog, "append", "serve.wal_append", event_bytes),
        (WriteAheadLog, "recover_state", "serve.recover_fold", None),
        (SegmentedWriteAheadLog, "recover_state", "serve.recover_fold", None),
        (ServeState, "apply", "serve.state_apply", None),
        (ServeState, "snapshot", "serve.snapshot", snapshot_bytes),
    ]


def plan_boundaries() -> list[tuple]:
    import repro.plan.objective as objective
    from repro.chaos.scenarios import ScenarioSpec
    from repro.plan.space import SearchSpace

    def hit_or_miss(args, kwargs, result):
        # score() leaves the miss counter untouched exactly on a memo hit
        obj = args[0]
        seen = getattr(obj, "_bench_misses", 0)
        obj._bench_misses = obj.misses
        return {"hit": obj.misses == seen}

    def trace_count(args, kwargs, result):
        return {"traces": len(args[0])}

    return [
        (objective.GoodputObjective, "score", "plan.score", hit_or_miss),
        (objective, "evaluate_traces", "chaos.evaluate_traces", trace_count),
        (ScenarioSpec, "sample", "chaos.sample_trace", None),
        (SearchSpace, "feasible", "plan.feasible", None),
    ]


@contextlib.contextmanager
def installed(log: SpanLog, boundaries: list[tuple]):
    """Wrap each ``(owner, attribute)`` for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, attrs_fn in boundaries:
            raw = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            saved.append((owner, attr, raw))
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = _timed(log, name, fn, attrs_fn)
            setattr(owner, attr,
                    classmethod(wrapped) if isinstance(raw, classmethod)
                    else wrapped)
        yield log
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
