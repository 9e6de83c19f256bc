"""The two control-plane workloads.

One round = open a fresh server on a fresh WAL, register tenants, play a
seeded submit/tick script through a ``ServeClient``, drain, shut down,
then reopen the finished WAL five times.  The seed shuffles a fixed
multiset of job shapes, so every seed does the same amount of work.

Both end-to-end workloads run single-threaded over the loopback transport
without fsync: TCP between two threads plus an fsync per append measured
14-48 % run-to-run spread in this sandbox, too wide for a bounded metric.
That deployment shape is still measured, as per-layer metrics, by
:meth:`ServeWorkload.extras` during the traced run of the steady workload.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import shutil
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bench import stats
from bench.spans import SpanLog, installed, serve_boundaries
from bench.workload import Deadline, Round

from repro.jobs import JobSpec
from repro.serve import (
    DEFAULT_SEGMENT_BYTES,
    LoopbackTransport,
    ServeClient,
    ServeConfig,
    ServeServer,
    TcpTransport,
    TenantSpec,
    serve_tcp,
)

_clock = time.perf_counter

TENANTS = 4
#: Round.extra key of the tick(1) round trips
TICK = "serve.tick_ms_p50"
REOPENS = 5
#: every WAL lives (briefly) under here; the checkout is the only place
#: the benchmark may write
SCRATCH = Path(__file__).resolve().parent / "out" / "tmp"

#: queue depths that count as shallow / deep for serve.tick_ms_p50_*
SHALLOW, DEEP = 10, 50


@dataclass(frozen=True)
class ServeSpec:
    tcp: bool
    fsync: bool
    #: ``None`` = flat single-file WAL
    segment_bytes: int | None
    #: submits between scheduling rounds, and how many such bursts
    burst: int
    bursts: int
    #: rounds ticked after each burst
    ticks: int


def _spec(name: str, scale: str) -> ServeSpec:
    tiny = scale == "tiny"
    if name == "serve_steady_flat":
        return ServeSpec(tcp=False, fsync=False, segment_bytes=None,
                         burst=3, bursts=8 if tiny else 120, ticks=1)
    if name == "serve_burst_segmented":
        return ServeSpec(tcp=False, fsync=False,
                         segment_bytes=DEFAULT_SEGMENT_BYTES,
                         burst=6 if tiny else 35, bursts=3, ticks=2)
    raise KeyError(name)


class ServeWorkload:
    def __init__(self, name: str, seed: int, scale: str, deadline: Deadline):
        self.name = name
        self.spec = _spec(name, scale)
        self.deadline = deadline
        self._rounds = 0
        total = self.spec.burst * self.spec.bursts
        shapes = [(2 + i % 3, 2 + (i // 3) % 3) for i in range(total)]
        order = np.random.default_rng([seed, 0x5E27E]).permutation(total)
        #: (workers, iterations) per job, a seeded shuffle of a fixed multiset
        self.jobs = [shapes[i] for i in order]

    def cold_round(self) -> Round:
        return self.round(None)

    def round(self, log: SpanLog | None) -> Round:
        gc.collect()
        self._rounds += 1
        root = SCRATCH / f"{self.name}-{os.getpid()}-{self._rounds}"
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        try:
            if log is None:
                return self._drive(root, None)
            with installed(log, serve_boundaries()):
                return self._drive(root, log)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def extras(self) -> dict[str, float]:
        """The steady script again as deployed: TCP between two threads
        and an fsync per append.  Per-layer only (see module docstring)."""
        if self.spec.segment_bytes is not None:
            return {}
        flat, self.spec = self.spec, dataclasses.replace(
            self.spec, tcp=True, fsync=True)
        try:
            self.round(None)  # discarded: first socket, first fsync
            log = SpanLog(f"{self.name}/tcp-fsync")
            rnd = self.round(log)
        finally:
            self.spec = flat
        appends = log.durations("serve.wal_append")
        return {
            "serve.tcp_fsync_ack_ms_p50": stats.median(rnd.ops) * 1e3,
            "serve.tcp_fsync_ack_ms_p99": stats.percentile(rnd.ops, 99) * 1e3,
            "serve.tcp_fsync_tick_ms_p50":
                stats.median(rnd.extra[TICK]) * 1e3,
            "serve.fsync_append_us_p50": stats.median(appends) * 1e6,
            "serve.fsync_append_us_p99": stats.percentile(appends, 99) * 1e6,
        }

    # -- one round -----------------------------------------------------------
    def _drive(self, root: Path, log: SpanLog | None) -> Round:
        spec = self.spec
        path = root / ("wal" if spec.segment_bytes else "wal.jsonl")
        options = dict(fsync=spec.fsync)
        if log is not None:
            options["recorder"] = log.recorder()

        start = _clock()
        server = ServeServer(
            path,
            ServeConfig(num_machines=8, devices_per_machine=4, num_spares=1),
            segment_bytes=spec.segment_bytes, **options,
        )
        thread = None
        try:
            if spec.tcp:
                thread, port = _serve_in_thread(server)
                transport = TcpTransport("127.0.0.1", port)
            else:
                transport = LoopbackTransport(server)
            client = ServeClient(transport, client_id="bench")
            client.hello()
            for t in range(TENANTS):
                client.register_tenant(TenantSpec(name=f"tenant-{t}"))
            setup_s = _clock() - start

            rnd = Round(setup_s=setup_s, run_s=0.0, ops=[], recoveries=[],
                        attempted=0, extra={TICK: []}, spans=log)
            start = _clock()
            self._play(client, rnd, log)
            rnd.run_s = _clock() - start
            live = client.snapshot()
            acked = [f"job-{j}" for j in range(len(self.jobs))]
            client.shutdown()
            client.close()
        finally:
            if thread is not None:
                thread.join(timeout=10.0)
            server.close()
        if thread is not None:
            rnd.check(not thread.is_alive(), "TCP server thread did not exit")

        files = [path] if path.is_file() else list(path.iterdir())
        on_disk = sum(p.stat().st_size for p in files)
        replayed = total = 0
        for _ in range(REOPENS):
            self.deadline.check()
            t0 = _clock()
            reopened = ServeServer(path, **options)
            t1 = _clock()
            rnd.recoveries.append(t1 - t0)
            if log is not None:
                log.add("harness.reopen", t0, t1)
            try:
                state = reopened.state
                rnd.check(state.snapshot() == live,
                          "recovered state differs from the live state")
                rnd.check(all(name in state.jobs for name in acked),
                          "an acknowledged job is missing after reopening")
                replayed = len(reopened.wal.events)
                total = state.last_seq + 1
            finally:
                reopened.close()

        rnd.digest = stats.digest(live)
        rnd.exact = {
            "serve.wal_bytes_on_disk": on_disk,
            "serve.wal_segment_files": len(files) if spec.segment_bytes else 0,
            "serve.wal_rotations": len(files) - 1 if spec.segment_bytes else 0,
            "serve.recover_events_replayed": replayed,
            "serve.recover_fraction": replayed / total if total else 0.0,
        }
        if log is not None:
            timings, counted = _layer_metrics(log, on_disk)
            rnd.layer = timings
            rnd.exact.update(counted)
        return rnd

    def _play(self, client: ServeClient, rnd: Round,
              log: SpanLog | None) -> None:
        spec = self.spec
        ticks = rnd.extra[TICK]

        def tick(rounds: int) -> None:
            t0 = _clock()
            client.tick(rounds)
            t1 = _clock()
            ticks.append((t1 - t0) / rounds)
            rnd.attempted += 1
            if log is not None:
                log.add("harness.tick", t0, t1)

        for j, (workers, iterations) in enumerate(self.jobs):
            self.deadline.check()
            job = JobSpec(name=f"job-{j}", parallelism="dp",
                          num_workers=workers, iterations=iterations)
            t0 = _clock()
            verdict, _ = client.submit(f"tenant-{j % TENANTS}", job)
            t1 = _clock()
            rnd.ops.append(t1 - t0)
            rnd.check(verdict == "accepted", f"job-{j} was {verdict}")
            if log is not None:
                log.add("harness.submit", t0, t1)
            if (j + 1) % spec.burst == 0:
                tick(spec.ticks)
        # never the ``run`` op: at depth it outlives the client's request
        # timeout; drive the drain one round at a time instead
        while _active(client.status()):
            self.deadline.check()
            tick(1)


def _active(status: dict) -> int:
    jobs = status["jobs"]
    return sum(jobs.get(s, 0) for s in ("queued", "running", "blocked"))


def _serve_in_thread(server: ServeServer):
    ready = threading.Event()
    bound: list[int] = []

    def on_ready(port: int) -> None:
        bound.append(port)
        ready.set()

    thread = threading.Thread(
        target=serve_tcp, args=(server,),
        kwargs=dict(port=0, ready_callback=on_ready), daemon=True,
    )
    thread.start()
    if not ready.wait(timeout=10.0):
        raise RuntimeError("serve_tcp did not come up")
    return thread, bound[0]


def _layer_metrics(log: SpanLog, on_disk: int):
    """(timings, exact counts) of one traced round."""
    nodes = log.nested()
    p = lambda name, q, k: stats.percentile(log.durations(name), q) * k  # noqa: E731
    appends = [n for n in nodes if n["name"] == "serve.wal_append"]
    owners = [(log.owner(n, ("serve.submit_core", "serve.tick")) or n)["name"]
              for n in appends]
    submits = max(1, len(log.named("serve.submit_core")))
    tick_rows = log.named("serve.tick")
    depth = lambda row: row[3]["queue"]                      # noqa: E731
    event_bytes = sum(n["attrs"]["bytes"] for n in appends)
    snapshots = log.named("serve.snapshot")
    folds = log.child_total("harness.reopen", "serve.recover_fold")
    reopens = log.durations("harness.reopen")

    timings = {
        "serve.protocol_self_us_p50": stats.median([
            n["self"] for n in nodes if n["name"] == "serve.handle_request"
            and n["attrs"]["op"] == "submit"]) * 1e6,
        "serve.submit_core_us_p50": p("serve.submit_core", 50, 1e6),
        "serve.wal_append_us_p50": p("serve.wal_append", 50, 1e6),
        "serve.wal_append_us_p99": p("serve.wal_append", 99, 1e6),
        "serve.state_apply_us_p50": p("serve.state_apply", 50, 1e6),
        "serve.client_overhead_us_p50": stats.median([
            wall - handled for wall, handled in zip(
                log.durations("harness.submit"),
                log.child_total("harness.submit", "serve.handle_request"))
        ]) * 1e6,
        "serve.tick_ms_p50_shallow": stats.median(
            [r[2] - r[1] for r in tick_rows if depth(r) <= SHALLOW]) * 1e3,
        "serve.tick_ms_p50_deep": stats.median(
            [r[2] - r[1] for r in tick_rows if depth(r) >= DEEP]) * 1e3,
        "serve.snapshot_ms_p50": p("serve.snapshot", 50, 1e3),
        "serve.recover_fold_ms": stats.median(folds) * 1e3,
        "serve.recover_parse_ms": stats.median(
            [wall - fold for wall, fold in zip(reopens, folds)]) * 1e3,
    }
    exact = {
        "serve.wal_appends_per_submit":
            owners.count("serve.submit_core") / submits,
        "serve.wal_appends_per_tick":
            owners.count("serve.tick") / max(1, len(tick_rows)),
        "serve.queue_depth_max": max((depth(r) for r in tick_rows), default=0),
        "serve.wal_event_bytes": event_bytes,
        "serve.wal_write_amplification":
            on_disk / event_bytes if event_bytes else 0.0,
        "serve.snapshot_bytes_max":
            max((r[3]["bytes"] for r in snapshots), default=0),
        "obs.events_per_iter":
            log.counts.get("obs.events", 0.0) / max(1, len(tick_rows)),
    }
    return timings, exact
