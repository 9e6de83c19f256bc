"""Deterministic network-fault injection for the serve protocol.

``repro.chaos`` kills machines, ``repro.serve.drill`` kills the
scheduler process; this module breaks the *wire between client and
scheduler*.  :class:`FaultyTransport` sits between a
:class:`~repro.serve.client.ServeClient` and any real transport and —
driven by one seeded RNG stream, so every drill replays bit for bit —
drops requests, drops acks (the classic double-admission trap),
duplicates frames, replays stale frames out of order, truncates frames
in either direction, and opens partition windows during which nothing
gets through.

:func:`network_drill` is the acceptance matrix the ISSUE asks for:
every netchaos profile, plus deterministic crash-restarts of the server
mid-conversation, plus single-segment WAL corruption, each cell
asserting the same three invariants against an unfaulted baseline —

1. **zero acked-submission loss** — every verdict a client ever heard
   survives to the final state;
2. **zero duplicate admission** — at most one submit/reject event per
   job name across the *entire* WAL history;
3. **bitwise replay equality** — the final state snapshot (and, absent
   corruption, the full event history) is byte-identical to the
   unfaulted run's, and so is its ``summary()``: a restarted server
   builds its scheduling indexes lazily, the baseline keeps them event
   by event, and the two must agree.

:func:`fuzz_protocol` is the bounded-iteration decoder fuzz wired into
tier-1: seeded corrupt/truncated/oversized NDJSON frames must always
come back as a parseable fault envelope, never a crash.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError
from repro.serve.client import (
    LoopbackTransport,
    ServeClient,
    TransportError,
)
from repro.serve.drill import TrafficScript, demo_config, demo_traffic
from repro.serve.protocol import respond_line
from repro.serve.retry import BackoffPolicy
from repro.serve.segments import SegmentedWriteAheadLog
from repro.serve.server import ServeConfig, ServeServer
from repro.utils.seeding import derive_seed

__all__ = [
    "NetChaosConfig", "NETCHAOS_PROFILES", "FaultyTransport",
    "fuzz_protocol", "run_script_via_client", "network_drill",
    "NetChaosCellResult", "NetworkDrillReport",
]

#: ops that are NOT safe to replay late (no idempotency key on the
#: wire), so the stale-replay fault skips them
_NOT_REPLAY_SAFE = ('"op":"shrink"', '"op":"run"', '"op":"shutdown"')


@dataclass(frozen=True)
class NetChaosConfig:
    """One seeded network-fault mix for :class:`FaultyTransport`.

    Probabilities are per frame; ``partitions`` are half-open
    ``(start, end)`` windows on the transport's frame counter during
    which every send fails (both directions dark).  Same config, same
    seed, same fault sequence — bit for bit.

    >>> NetChaosConfig(drop_request=0.2).drop_request
    0.2
    >>> NetChaosConfig(drop_request=1.5)
    Traceback (most recent call last):
        ...
    repro.errors.ConfigurationError: probabilities must be in [0, 1]
    """

    drop_request: float = 0.0
    drop_response: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    truncate_request: float = 0.0
    truncate_response: float = 0.0
    partitions: tuple[tuple[int, int], ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        probs = (self.drop_request, self.drop_response, self.duplicate,
                 self.reorder, self.truncate_request,
                 self.truncate_response)
        if any(not 0.0 <= p <= 1.0 for p in probs):
            raise ConfigurationError("probabilities must be in [0, 1]")
        for window in self.partitions:
            if len(window) != 2 or window[0] >= window[1]:
                raise ConfigurationError(
                    f"partition windows must be (start, end) with "
                    f"start < end, got {window!r}"
                )


#: the named fault mixes :func:`network_drill` runs by default
NETCHAOS_PROFILES: dict[str, NetChaosConfig] = {
    "drop": NetChaosConfig(drop_request=0.12, drop_response=0.12),
    "duplicate": NetChaosConfig(duplicate=0.35),
    "reorder": NetChaosConfig(reorder=0.35),
    "truncate": NetChaosConfig(truncate_request=0.12,
                               truncate_response=0.12),
    "partition": NetChaosConfig(partitions=((6, 13), (40, 46))),
    "storm": NetChaosConfig(drop_request=0.06, drop_response=0.06,
                            duplicate=0.15, reorder=0.15,
                            truncate_request=0.06,
                            truncate_response=0.06,
                            partitions=((25, 30),)),
}


class FaultyTransport:
    """A seeded, deterministic fault proxy around any transport.

    Wraps an inner transport (``send(line) -> line``) and injects the
    faults of a :class:`NetChaosConfig`.  A fixed number of RNG draws
    is consumed per frame, so the fault sequence is a pure function of
    ``(config, call sequence)`` — which makes whole drills, retries
    included, bitwise replayable.  Fault counts accumulate in
    :attr:`stats`.

    The asymmetric faults are the interesting ones: ``drop_response``
    delivers the request (the WAL commits!) and *then* fails, which is
    exactly the lost-ack scenario that double-admits without the dedup
    table; ``reorder`` stashes a copy of a frame and replays it stale
    before a later frame, which only idempotent ops survive.

    >>> calls = []
    >>> class Echo:
    ...     def send(self, line):
    ...         calls.append(line)
    ...         return '{"ok":true}'
    ...     def close(self): pass
    >>> proxy = FaultyTransport(Echo(), NetChaosConfig(duplicate=1.0))
    >>> proxy.send('{"op":"hello"}')
    '{"ok":true}'
    >>> len(calls)                       # duplicated on the wire
    2
    >>> proxy.stats["duplicated"]
    1
    """

    def __init__(self, inner, config: NetChaosConfig):
        self.inner = inner
        self.config = config
        self._rng = np.random.default_rng(
            derive_seed(config.seed, "serve", "netchaos")
        )
        self.frames = 0
        self._stale: str | None = None
        self.stats = {
            "frames": 0, "partitioned": 0, "dropped_requests": 0,
            "dropped_responses": 0, "duplicated": 0, "replayed_stale": 0,
            "truncated_requests": 0, "truncated_responses": 0,
        }

    def send(self, line: str) -> str:
        cfg = self.config
        draws = self._rng.random(7)
        frame = self.frames
        self.frames += 1
        self.stats["frames"] += 1
        if any(a <= frame < b for a, b in cfg.partitions):
            self.stats["partitioned"] += 1
            raise TransportError(f"partitioned (frame {frame})")
        if draws[0] < cfg.drop_request:
            self.stats["dropped_requests"] += 1
            raise TransportError(f"request dropped (frame {frame})")
        if self._stale is not None:
            # a previously stashed frame arrives late, before this one
            self.inner.send(self._stale)
            self._stale = None
            self.stats["replayed_stale"] += 1
        if draws[1] < cfg.reorder and not any(
                op in line for op in _NOT_REPLAY_SAFE):
            self._stale = line
        wire = line
        if draws[2] < cfg.truncate_request and len(line) > 2:
            cut = 1 + int(draws[3] * (len(line) - 2))
            wire = line[:cut]
            self.stats["truncated_requests"] += 1
        if draws[4] < cfg.duplicate:
            self.inner.send(wire)
            self.stats["duplicated"] += 1
        response = self.inner.send(wire)
        if draws[5] < cfg.drop_response:
            self.stats["dropped_responses"] += 1
            raise TransportError(f"response dropped (frame {frame})")
        if draws[6] < cfg.truncate_response and len(response) > 2:
            cut = 1 + int(draws[3] * (len(response) - 2))
            self.stats["truncated_responses"] += 1
            return response[:cut]
        return response

    def close(self) -> None:
        self.inner.close()


def fuzz_protocol(server: ServeServer, iterations: int = 100,
                  seed: int = 0) -> dict:
    """Throw seeded garbage at the NDJSON decoder; assert it never dies.

    Each iteration sends one mutated frame — random bytes, a truncated
    valid request, a non-object JSON value, an oversized line, raw
    control characters — through :func:`respond_line` and asserts the
    response is parseable JSON with the ``ok``/``error`` fault-envelope
    contract.  Bounded, deterministic, tier-1 fast.  Returns counts.

    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "wal.jsonl")
    >>> s = ServeServer(path, ServeConfig(num_machines=2,
    ...                                   devices_per_machine=1))
    >>> report = fuzz_protocol(s, iterations=50, seed=1)
    >>> report["iterations"], report["crashes"]
    (50, 0)
    >>> report["fault_envelopes"] > 0
    True
    >>> s.close()
    """
    from repro.serve.protocol import MAX_LINE_BYTES

    rng = np.random.default_rng(derive_seed(seed, "serve", "fuzz"))
    valid = [
        '{"op":"hello"}',
        '{"op":"status"}',
        '{"op":"snapshot"}',
        '{"op":"job","name":"ghost"}',
        '{"op":"register_tenant","tenant":{"name":"fz","share":-1}}',
        '{"op":"submit","tenant":"nobody","spec":{"name":"x"}}',
    ]
    report = {"iterations": 0, "fault_envelopes": 0, "crashes": 0}
    for _ in range(iterations):
        kind = int(rng.integers(0, 5))
        if kind == 0:  # random printable garbage
            size = int(rng.integers(1, 80))
            line = "".join(chr(int(c)) for c in
                           rng.integers(32, 127, size=size))
        elif kind == 1:  # truncated valid frame
            base = valid[int(rng.integers(0, len(valid)))]
            line = base[: int(rng.integers(1, len(base)))]
        elif kind == 2:  # valid JSON, wrong shape
            line = ["[1,2,3]", '"just a string"', "42", "null",
                    "true"][int(rng.integers(0, 5))]
        elif kind == 3:  # control bytes / embedded junk
            base = valid[int(rng.integers(0, len(valid)))]
            pos = int(rng.integers(0, len(base)))
            line = base[:pos] + chr(int(rng.integers(0, 32))) + base[pos:]
        else:  # a frame that is simply too large
            line = '{"op":"' + "x" * MAX_LINE_BYTES + '"}'
        try:
            raw = respond_line(server, line)
            response = json.loads(raw)
            assert isinstance(response, dict) and "ok" in response
            if not response.get("ok", False):
                assert response.get("error")
                report["fault_envelopes"] += 1
        except Exception:  # noqa: BLE001 - the fuzz verdict itself
            report["crashes"] += 1
        report["iterations"] += 1
    return report


def run_script_via_client(client: ServeClient, script: TrafficScript,
                          max_rounds: int = 10_000) -> list[tuple[str,
                                                                  str]]:
    """Drive a :class:`TrafficScript` through a client; returns acks.

    The client-side twin of :func:`repro.serve.drill.run_script`: each
    action is issued exactly once (the client's request ids and round
    guards make retries safe), in deterministic order, and the returned
    ``(verdict, job name)`` list is everything the client was ever
    *acknowledged* — the ground truth the drill holds the final state
    to.

    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "wal.jsonl")
    >>> server = ServeServer(path, demo_config(), fsync=False)
    >>> acks = run_script_via_client(
    ...     ServeClient(LoopbackTransport(server), client_id="doc"),
    ...     demo_traffic())
    >>> len(acks)
    8
    >>> server.state.all_done()
    True
    >>> server.close()
    """
    for tenant in script.tenants:
        client.register_tenant(tenant)
    acks: list[tuple[str, str]] = []
    done_subs: set[int] = set()
    done_fails: set[int] = set()
    done_shrinks: set[int] = set()
    rnd = int(client.status()["round"])
    for _ in range(max_rounds):
        for i, (due, tenant, spec) in enumerate(script.submissions):
            if due <= rnd and i not in done_subs:
                acks.append(client.submit(tenant, spec))
                done_subs.add(i)
        for i, (due, machines) in enumerate(script.shrinks):
            if due <= rnd and i not in done_shrinks:
                client.shrink(list(machines))
                done_shrinks.add(i)
        for i, (due, machine, tag) in enumerate(script.failures):
            if due <= rnd and i not in done_fails:
                client.inject_failure(machine, tag=tag)
                done_fails.add(i)
        status = client.status()
        active = sum(status["jobs"].get(s, 0)
                     for s in ("queued", "running", "blocked"))
        if (active == 0 and rnd > script.last_action_round
                and len(done_subs) == len(script.submissions)):
            return acks
        rnd = client.tick()
    raise ConfigurationError(
        f"script did not settle within {max_rounds} rounds"
    )


class _Harness:
    """A restartable in-process server on one (segmented) WAL path."""

    def __init__(self, wal_path: Path, config: ServeConfig,
                 segment_bytes: int | None):
        self.wal_path = wal_path
        self.config = config
        self.segment_bytes = segment_bytes
        self.server: ServeServer | None = None
        self.restarts = 0

    def current(self) -> ServeServer:
        if self.server is None:
            self.server = ServeServer(
                self.wal_path, self.config, fsync=False,
                segment_bytes=self.segment_bytes,
            )
        return self.server

    def kill(self, torn: bool) -> None:
        """Simulated ``kill -9``: abandon the process, optionally with
        a half-written line on the WAL tail (the mid-append signature).

        Only a *torn* (never-acknowledged) tail is a legitimate kill
        artifact — acked events were fsynced before their ack, so they
        can never vanish.
        """
        if self.server is None:
            return
        wal = self.server.wal
        wal.close()  # flush-per-line means the file is already current
        if torn:
            with open(wal.active_path, "a") as fh:
                fh.write('{"c":0,"k":"submi')
        self.server = None
        self.restarts += 1


class _CrashingTransport:
    """Deliver frames to a harness, crashing the server at fixed frames.

    Even crash frames die *before* processing (the request is lost, a
    torn line lands on the WAL); odd crash frames die *after* the WAL
    committed but before the ack reaches the client (the lost-ack
    double-admission trap).  Either way the client sees a
    :class:`TransportError`, retries, and the restarted server must
    make the retry exactly-once.
    """

    def __init__(self, harness: _Harness, crash_frames: set[int]):
        self.harness = harness
        self.crash_frames = crash_frames
        self.frames = 0

    def send(self, line: str) -> str:
        frame = self.frames
        self.frames += 1
        crash_here = frame in self.crash_frames
        if crash_here and frame % 2 == 0:
            self.harness.kill(torn=True)
            raise TransportError(f"server crashed mid-write "
                                 f"(frame {frame})")
        response = respond_line(self.harness.current(), line)
        if crash_here:
            self.harness.kill(torn=False)
            raise TransportError(f"server crashed before ack "
                                 f"(frame {frame})")
        return response

    def close(self) -> None:
        pass


@dataclass(frozen=True)
class NetChaosCellResult:
    """One cell of the :func:`network_drill` matrix.

    ``quarantined`` counts the segments the cell's last reopen set
    aside.  The corruption cell alone fills in ``unverified``, the
    segments its cold restart left unread behind the anchor, and
    ``flagged``, what the full audit (``inspect``) reports as
    ``(segment, state_loss)``.

    >>> NetChaosCellResult(cell="drop", frames=10, faults={},
    ...                    restarts=0, acked=8, acked_lost=0,
    ...                    duplicate_admissions=0,
    ...                    final_state_equal=True,
    ...                    events_equal=True, quarantined=0).passed
    True
    """

    cell: str
    frames: int
    faults: dict
    restarts: int
    acked: int
    acked_lost: int
    duplicate_admissions: int
    final_state_equal: bool
    events_equal: bool
    quarantined: int
    unverified: tuple[int, ...] = ()
    flagged: tuple[tuple[int, bool], ...] = ()

    @property
    def passed(self) -> bool:
        return (self.acked_lost == 0 and self.duplicate_admissions == 0
                and self.final_state_equal and self.events_equal)


@dataclass(frozen=True)
class NetworkDrillReport:
    """Aggregated verdict of the netchaos × crash × corruption matrix.

    >>> callable(network_drill)       # the producer of this report
    True
    """

    baseline_events: int
    baseline_goodput: float
    cells: tuple[NetChaosCellResult, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return bool(self.cells) and all(c.passed for c in self.cells)

    @property
    def acked_lost(self) -> int:
        return sum(c.acked_lost for c in self.cells)

    @property
    def duplicate_admissions(self) -> int:
        return sum(c.duplicate_admissions for c in self.cells)

    def format_table(self) -> str:
        rows = ["cell             frames  restarts  acked  lost  dup  "
                "state==  events==  quarantined  unverified"]
        for c in self.cells:
            rows.append(
                f"{c.cell:<16} {c.frames:>6}  {c.restarts:>8}  "
                f"{c.acked:>5}  {c.acked_lost:>4}  "
                f"{c.duplicate_admissions:>3}  "
                f"{str(c.final_state_equal):<7}  "
                f"{str(c.events_equal):<8}  {c.quarantined:>11}  "
                f"{len(c.unverified):>10}"
            )
        rows.append(
            f"baseline: {self.baseline_events} events, goodput "
            f"{self.baseline_goodput:.3f}, "
            f"{'PASS' if self.passed else 'FAIL'}"
        )
        return "\n".join(rows)


def _audit(server: ServeServer, acks: list[tuple[str, str]],
           baseline: tuple[str, dict],
           baseline_lines: list[str] | None) -> dict:
    """The three invariants, measured against a finished cell."""
    state = server.state
    lost = sum(1 for _, name in acks if name not in state.jobs)
    history = server.wal.all_events()
    admissions: dict[str, int] = {}
    for event in history:
        if event.kind in ("submit", "reject"):
            admissions[event.name] = admissions.get(event.name, 0) + 1
    duplicates = sum(c - 1 for c in admissions.values() if c > 1)
    events_equal = True
    if baseline_lines is not None:
        events_equal = [e.to_json() for e in history] == baseline_lines
    return {
        "acked": len(acks),
        "acked_lost": lost,
        "duplicate_admissions": duplicates,
        "final_state_equal": (state.snapshot(), state.summary())
        == baseline,
        "events_equal": events_equal,
    }


def network_drill(
    config: ServeConfig | None = None,
    script: TrafficScript | None = None,
    *,
    profiles: tuple[str, ...] | None = None,
    seed: int = 0,
    segment_bytes: int = 8192,
    workdir: str | Path | None = None,
) -> NetworkDrillReport:
    """Run the netchaos × crash-restart × corruption acceptance matrix.

    One unfaulted baseline, then one cell per netchaos profile, a
    ``crash-restart`` cell (deterministic server kills mid-protocol,
    torn WAL tails included), a ``storm+crash`` cell stacking both, and
    a ``corruption`` cell that flips a byte in an old WAL segment and
    expects the cold restart to leave it unverified behind the anchor,
    the full audit to flag it, and no state damage.  Every cell
    asserts the module docstring's three invariants.  Deterministic in
    ``seed``, end to end.  Without a ``workdir`` the WALs go to a
    temporary directory, removed before the report returns.

    >>> callable(network_drill)
    True
    """
    if workdir is None:
        with tempfile.TemporaryDirectory(
                prefix="repro-serve-netchaos-") as tmp:
            return network_drill(config, script, profiles=profiles,
                                 seed=seed, segment_bytes=segment_bytes,
                                 workdir=tmp)
    config = config or demo_config()
    script = script or demo_traffic()
    profiles = tuple(profiles) if profiles is not None \
        else tuple(NETCHAOS_PROFILES)
    unknown = [p for p in profiles if p not in NETCHAOS_PROFILES]
    if unknown:
        raise ConfigurationError(
            f"unknown netchaos profiles {unknown}; "
            f"known: {tuple(NETCHAOS_PROFILES)}"
        )
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    policy = BackoffPolicy(retries=12, base_delay=0.001,
                           max_delay=0.01, seed=seed)

    # -- the unfaulted baseline: same driver, same request-id stream ----
    with ServeServer(workdir / "baseline.jsonl", config,
                     fsync=False) as baseline:
        client = ServeClient(LoopbackTransport(baseline),
                             client_id="drill", policy=policy)
        base_acks = run_script_via_client(client, script)
        baseline_state = (baseline.state.snapshot(),
                          baseline.state.summary())
        baseline_goodput = baseline.state.goodput()
        baseline_lines = [e.to_json() for e in baseline.wal.events]

    cells: list[NetChaosCellResult] = []

    def run_cell(name: str, transport_for, check_corruption=False):
        import warnings as _warnings

        harness = _Harness(workdir / f"wal-{name}", config,
                           segment_bytes)
        transport = transport_for(harness)
        client = ServeClient(transport, client_id="drill",
                             policy=policy)
        with _warnings.catch_warnings():
            # torn tails are *injected* by the crash cells; the
            # recovery warnings are the expected outcome, not news
            _warnings.simplefilter("ignore", UserWarning)
            acks = run_script_via_client(client, script)
            server = harness.current()
        quarantined = len(server.wal.quarantined)
        unverified, flagged = (), ()
        if check_corruption:
            # flip payload bytes in the oldest segment, behind the
            # newest snapshot anchor, then force a cold restart
            harness.kill(torn=False)
            wal_dir = workdir / f"wal-{name}"
            victim = sorted(wal_dir.glob("segment-*.jsonl"))[0]
            lines = victim.read_text().splitlines()
            lines[-1] = lines[-1].replace(":", ";", 1)
            victim.write_text("\n".join(lines) + "\n")
            server = harness.current()
            quarantined = len(server.wal.quarantined)
            unverified = tuple(server.wal.unverified)
            flagged = tuple(
                (q["segment"], q["state_loss"])
                for q in SegmentedWriteAheadLog.inspect(wal_dir).quarantined)
        audit = _audit(server, acks, baseline_state,
                       None if check_corruption else baseline_lines)
        stats = dict(getattr(transport, "stats", {}))
        frames = getattr(transport, "frames", 0) or stats.get("frames", 0)
        cells.append(NetChaosCellResult(
            cell=name, frames=frames, faults=stats,
            restarts=harness.restarts, quarantined=quarantined,
            unverified=unverified, flagged=flagged, **audit,
        ))
        harness.kill(torn=False)

    for profile in profiles:
        cfg = NETCHAOS_PROFILES[profile]
        cfg = NetChaosConfig(**{**cfg.__dict__, "seed": seed})
        run_cell(profile, lambda h, c=cfg: FaultyTransport(
            LoopbackTransport(h.current), c))

    crash_frames = {11, 24, 47}
    run_cell("crash-restart",
             lambda h: _CrashingTransport(h, set(crash_frames)))
    storm = NetChaosConfig(**{**NETCHAOS_PROFILES["storm"].__dict__,
                              "seed": seed})
    run_cell("storm+crash",
             lambda h: FaultyTransport(
                 _CrashingTransport(h, set(crash_frames)), storm))
    run_cell("corruption", lambda h: LoopbackTransport(h.current),
             check_corruption=True)

    return NetworkDrillReport(
        baseline_events=len(baseline_lines),
        baseline_goodput=baseline_goodput,
        cells=tuple(cells),
    )
