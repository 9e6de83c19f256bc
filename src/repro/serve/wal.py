"""The control plane's write-ahead event log (WAL schema v2).

The append-only JSONL event log is the **source of truth** for the
entire control plane, the same discipline the paper applies to training
state: recovery is replay, not global restart.  Every state transition —
submit, admit, place, preempt, crash, lease, complete, ... — is one
:class:`ServeEvent`, durably appended (``fsync``) *before* the action is
acknowledged to any client.  A restarted server folds the log through
:meth:`repro.serve.ServeState.apply` and resumes exactly where the old
process died; in-memory state is always a pure function of the log.

There is **one file-level format**, parsed by :func:`read_wal_file`
through the shared :class:`repro.utils.jsonl.LogFormat` codec: a
versioned header line, then one line per event, gapless from the
header's ``base_seq``: ``{"c":<crc>,`` + the event's canonical-JSON
body without its ``{``, encoded once on append, ``<crc>`` the CRC-32 of
that body.  ``LogFormat`` decodes each line once and hands
:meth:`ServeEvent.from_decoded` the raw line with its decoded object
(``record(line, obj)``); the event is built from the object, and the
CRC is taken on the line's own bytes, not on a re-encode, so *mid-file
bit rot* — a flipped byte that still parses as JSON, even to the same
value — is refused instead of folded in, and so is a v2 line
reformatted by hand (spaces, reordered keys, re-escaped unicode), which
a re-encode check passed whenever the re-encode matched.  v1 lines (no
checksum) still load.  A segment of the directory log
(:mod:`repro.serve.segments`) states its ``base_seq`` and a
``snapshot`` of the state before its first event; the flat log is the
degenerate segment: base 0, no snapshot, rotation off.

A torn final line (the process died mid-append) was never acknowledged,
so on reopen it is warned about and truncated away; it must never crash
recovery.  A complete final line whose newline never reached disk is
kept, and terminated before the next append, which would otherwise
land on the same line and tear both.  Recovery is a pure
:class:`_RecoveryPlan` computed before a byte is touched;
:class:`_WalBase` executes it and holds everything else the two writer
classes share.  Their names stay distinct, each with its
own ``append`` and ``recover_state``, because ``bench/spans.py`` wraps
exactly those four methods by name.
"""

from __future__ import annotations

import shutil
import warnings
import zlib
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

from repro.errors import ConfigurationError, LogIntegrityError
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.utils.jsonl import (
    JsonlWriter,
    LogFile,
    LogFormat,
    canonical_json,
    crc32_text,
    decode_json,
    torn_tail_message,
)

__all__ = ["WAL_VERSION", "ServeEvent", "WriteAheadLog"]

#: bump when the JSONL schema changes; readers reject newer versions
WAL_VERSION = 2

SEGMENT_FORMAT = "repro.serve.walseg"

#: event kinds understood by WAL schema v1, in rough lifecycle order
EVENT_KINDS = (
    "init",       # cluster geometry + server config (first event)
    "tenant",     # tenant registered (share, quota, caps)
    "submit",     # job accepted into the queue (acknowledged!)
    "reject",     # job refused by admission control (acknowledged!)
    "place",      # job granted slots, starts running
    "preempt",    # elastic job shrunk to make room for higher priority
    "restore",    # preempted job grew back toward its full width
    "crash",      # machine failed (fail-stop); payload lists hit jobs
    "lease",      # spare machine leased to replace a dead one
    "recover",    # blocked job resumed after its machines were replaced
    "reclaim",    # repaired machine returned to the spare pool
    "retire",     # machine permanently removed (cluster shrink)
    "shed",       # queued job dropped by graceful degradation
    "complete",   # job reached its iteration target
    "fail",       # job unrecoverable
    "round",      # one scheduling round stepped; advances time
)
#: the same kinds, for the membership test every event makes
_KINDS = frozenset(EVENT_KINDS)

#: CRC-32 state after the ``{`` a body starts with: a v2 line replaces
#: that brace by ``{"c":<crc>,``, so the body's CRC continues from here
#: over the line's bytes after its first comma
_CRC_OPEN = zlib.crc32(b"{")


@dataclass(frozen=True)
class ServeEvent:
    """One logged control-plane transition.

    ``seq`` is the global, gapless sequence number (0-based); ``kind``
    is one of :data:`EVENT_KINDS`; ``payload`` carries the kind-specific
    fields (job name, slot list, spec, ...) as plain JSON data.

    A line is ``{"c":<crc>,`` + the canonical body without its ``{``
    (``c`` sorts first, so the line is canonical JSON too), ``<crc>``
    the body's CRC-32: :meth:`to_json` encodes once, and
    :meth:`from_decoded` checks the CRC on the line's raw bytes.  Any
    flipped bit, even one that parses to the same value, and any hand
    reformatting raise :class:`~repro.errors.LogIntegrityError` instead
    of replaying a corrupted transition (a re-encode check let both
    through whenever the re-encode matched).  v1 lines (no ``c``; the
    canonical body, so they start ``{"k":"``) still parse.

    >>> e = ServeEvent(seq=0, kind="submit", payload={"name": "job-0"})
    >>> ServeEvent.from_json(e.to_json()) == e
    True
    >>> e.to_json()
    '{"c":818474185,"k":"submit","p":{"name":"job-0"},"seq":0}'
    """

    seq: int
    kind: str
    payload: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"unknown serve event kind {self.kind!r}; "
                f"known: {EVENT_KINDS}"
            )
        if self.seq < 0:
            raise ConfigurationError("seq must be >= 0")

    @property
    def name(self) -> str:
        """The job/tenant/machine this event is about ('' when global)."""
        return str(self.payload.get("name", ""))

    def to_json(self) -> str:
        body = canonical_json(
            {"seq": self.seq, "k": self.kind, "p": self.payload}
        )
        return f'{{"c":{crc32_text(body)},{body[1:]}'

    @classmethod
    def from_json(cls, line: str) -> "ServeEvent":
        return cls.from_decoded(line, decode_json(line))

    @classmethod
    def from_decoded(cls, line: str, d: dict) -> "ServeEvent":
        """The event a line holds, given the line and its decode (the
        ``LogFormat`` record): built from ``d`` (the payload copied, so
        the event aliases nothing), its CRC checked on ``line``."""
        event = cls(int(d["seq"]), str(d["k"]), dict(d.get("p", ())))
        if "c" in d or not line.startswith('{"k":"'):
            # anything but a v1 line — one whose "c" was flipped, say
            head, _, rest = line.partition(",")
            crc = zlib.crc32(rest.encode("utf-8"), _CRC_OPEN)
            if head != f'{{"c":{crc}':
                raise LogIntegrityError(
                    f"WAL record seq {event.seq} ({event.kind!r}) fails "
                    f"its checksum: stored crc {d.get('c')}, computed "
                    f"{crc} — mid-file corruption (bit rot?)"
                )
        return event


def _header_fields(header: dict,
                   index: int | None) -> tuple[int, str | None]:
    """``(base_seq, snapshot)`` of a WAL header.  ``index`` is the segment
    number the filename claims; ``None`` reads the file as the flat log,
    the degenerate segment (a v1 header names no format at all)."""
    if index is None:
        return 0, None
    if header.get("format") != SEGMENT_FORMAT:
        raise ConfigurationError(
            f"not a WAL segment (format {header.get('format')!r})")
    if header.get("segment") is not None \
            and int(header["segment"]) != index:
        raise ConfigurationError(
            f"header names segment {header['segment']} but the "
            f"filename says {index}")
    snap = header.get("snapshot")
    return int(header["base_seq"]), (str(snap) if snap else None)


@dataclass
class _WalFile(LogFile):
    """One WAL file as parsed: its valid prefix and its first error."""

    path: Path = Path()
    #: segment number (0 for the flat file)
    index: int = 0
    #: seq of the first record (-1: the header is unreadable)
    base_seq: int = -1
    snapshot: str | None = None
    #: the file does not end in a newline (and no torn line follows
    #: its last complete one), so the next append would land on that line
    unterminated: bool = False

    @property
    def total_records(self) -> int:
        """Record lines present (valid or not), for loss reports."""
        return max(0, self.complete_lines - 1)

    @property
    def end_seq(self) -> int:
        """Sequence just past the last valid event."""
        return self.base_seq + len(self.records)

    @property
    def is_anchor(self) -> bool:
        return self.snapshot is not None or self.base_seq == 0

    @property
    def event_bytes(self) -> int:
        """Bytes of the valid event lines (header excluded)."""
        return sum(len(line) + 1 for line in self.lines[1:])

    def truncate(self) -> None:
        """Cut the file on disk back to its valid prefix, so the next
        append cannot concatenate onto torn or corrupt bytes."""
        self.path.write_text(
            "\n".join(self.lines) + "\n" if self.lines else "")


def read_wal_file(path: Path, index: int | None = None) -> _WalFile:
    """Parse one WAL file — flat or segment — as far as it is valid.

    Events are CRC-verified and gapless from the header's ``base_seq``;
    the first violation ends the valid prefix and is kept as ``error``
    (never raised), next to the torn tail if there is one.
    """
    fmt = LogFormat("WAL", WAL_VERSION, record=ServeEvent.from_decoded,
                    header=partial(_header_fields, index=index))
    text = path.read_text()
    wal_file = _WalFile(path=path, index=index or 0,
                        **vars(fmt.parse(text, path)))
    wal_file.unterminated = (wal_file.torn is None
                             and not text.endswith("\n"))
    if wal_file.header:
        wal_file.base_seq, wal_file.snapshot = wal_file.header
    for i, event in enumerate(wal_file.records):
        if event.seq != wal_file.base_seq + i:
            wal_file.error = ConfigurationError(
                f"{path}: WAL sequence gap: record {i} has seq "
                f"{event.seq}, expected {wal_file.base_seq + i}")
            del wal_file.records[i:], wal_file.lines[i + 1:]
            break
    return wal_file


@dataclass
class _RecoveryPlan:
    """Pure description of a recovery: what to fold, what to touch.

    ``actions`` is the ordered list of side effects recovery *would*
    perform (``drop_unacked_tail`` / ``rewrite`` / ``quarantine`` /
    ``copy_quarantine``); :meth:`_WalBase._recover` executes them,
    :meth:`SegmentedWriteAheadLog.inspect` only reads them.  ``chain``
    is the adopted anchor-first file list (empty means the directory
    folds to a fresh, empty log).
    """

    chain: list[_WalFile] = field(default_factory=list)
    actions: list[dict] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    torn_tail: str | None = None

    def end_tail(self, tail: _WalFile) -> None:
        """Plan the repair the tail file needs before the next append:
        cut its torn final line, or end its complete final line with the
        newline a crash cut off (rewriting the valid prefix does both)."""
        if tail.torn is not None:
            self.torn_tail = tail.torn
            self.warnings.append(
                torn_tail_message(tail.path, tail.torn, "WAL line"))
        elif tail.unterminated:
            self.warnings.append(
                f"{tail.path}: final WAL line lacks its newline (crash "
                f"mid-write?); kept, and terminated before the next "
                f"append")
        else:
            return
        self.actions.append({"op": "rewrite", "seg": tail})


def _plan_flat(wal_file: _WalFile) -> _RecoveryPlan:
    """Recovery plan for the flat file: the one-file chain, strictly.

    With no later snapshot anchor to fall back on, corruption before
    the final line cannot be quarantined away; it is raised.
    """
    if wal_file.error is not None:
        raise wal_file.error
    plan = _RecoveryPlan(chain=[wal_file])
    plan.end_tail(wal_file)
    return plan


def _fold_state(snapshot: str | None, events: list[ServeEvent]):
    from repro.serve.state import ServeState

    state = (ServeState.restore(snapshot) if snapshot is not None
             else ServeState())
    try:
        for event in events:
            state.apply(event)
    except (KeyError, TypeError, ValueError) as exc:
        # the line parsed and its checksum (if any) held, but the
        # payload is not what this event kind carries
        raise ConfigurationError(
            f"WAL event seq {event.seq} ({event.kind!r}) has a malformed "
            f"payload ({type(exc).__name__}: {exc})") from exc
    return state


class _WalBase:
    """Everything the flat and the segmented log share.

    The recovered view (``events`` since the snapshot anchor, the
    anchor itself, quarantine reports, the dropped torn tail), the
    sequence bookkeeping, the plan executor and the active writer.
    """

    #: called at a rotation that is due an anchor, for the snapshot the
    #: new segment carries; the server always assigns it (the flat file
    #: never rotates, so never calls it)
    snapshot_provider: Callable[[], str] | None = None

    def __init__(self, fsync: bool, meta: dict | None,
                 recorder: Recorder):
        self.fsync = bool(fsync)
        #: gets one ``wal/parse`` span per file read at open, none after
        self.recorder = recorder
        #: free-form header metadata, stamped on every file this log opens
        self.meta = {str(k): str(v) for k, v in (meta or {}).items()}
        #: events since (and including) the newest snapshot anchor —
        #: exactly what ``recover_state`` folds
        self.events: list[ServeEvent] = []
        #: bytes of event lines behind ``events``, and of those the share
        #: in the active file; both re-derived from the files on reopen
        self.event_bytes = self.active_bytes = 0
        #: snapshot string of the anchor file (None = genesis)
        self.anchor_snapshot: str | None = None
        self.anchor_base_seq = 0
        #: quarantine reports from recovery: one dict per bad segment
        self.quarantined: list[dict] = []
        #: segment indices behind the adopted anchor that the reopen
        #: never read, so never verified (``inspect`` audits them)
        self.unverified: list[int] = []
        self.torn_tail_dropped: str | None = None
        #: sequence number / kind of the newest event (-1 / None: empty)
        self.last_seq = -1
        self.last_kind: str | None = None

    def _read(self, path: Path, index: int | None = None) -> _WalFile:
        """:func:`read_wal_file` as one ``wal/parse`` leaf span."""
        with self.recorder.span("wal/parse", segment=index or 0) as span:
            wal_file = read_wal_file(path, index)
            span.set(records=len(wal_file.records))
        return wal_file

    def _open_fresh(self, path: Path, header: dict, index: int = 0) -> None:
        """Start a new file at ``path`` and make it the active one."""
        self._active_index = index
        #: the file appends currently land in
        self.active_path = path
        self.active_bytes = 0
        self._writer = JsonlWriter(path, fsync=self.fsync)
        self._writer.write_line(canonical_json(header))

    def _recover(self, plan: _RecoveryPlan) -> bool:
        """Execute a plan; False when it adopted no file (start fresh)."""
        self.torn_tail_dropped = plan.torn_tail
        for act in plan.actions:
            seg, op = act["seg"], act["op"]
            if op == "drop_unacked_tail":
                seg.path.unlink()
            elif op == "rewrite":
                seg.truncate()
            elif op == "quarantine":
                seg.path.rename(Path(act["report"]["path"]))
                self.quarantined.append(act["report"])
            elif op == "copy_quarantine":
                shutil.copy2(seg.path, act["report"]["path"])
                seg.truncate()
                self.quarantined.append(act["report"])
        for msg in plan.warnings:
            warnings.warn(msg, UserWarning, stacklevel=4)
        if not plan.chain:
            return False
        anchor, tail = plan.chain[0], plan.chain[-1]
        self.anchor_snapshot = anchor.snapshot
        self.anchor_base_seq = anchor.base_seq
        self.events = [e for s in plan.chain for e in s.records]
        self.active_bytes = tail.event_bytes
        self.event_bytes = self.active_bytes + sum(
            s.event_bytes for s in plan.chain[:-1])
        self.last_seq = (self.events[-1].seq if self.events
                         else anchor.base_seq - 1)
        self.last_kind = self.events[-1].kind if self.events else None
        self._active_index = tail.index
        self.active_path = tail.path
        self._writer = JsonlWriter(tail.path, fsync=self.fsync,
                                   append=True)
        return True

    @property
    def next_seq(self) -> int:
        return self.last_seq + 1

    def _expect(self, event: ServeEvent) -> None:
        if event.seq != self.next_seq:
            raise ConfigurationError(
                f"WAL append out of order: expected seq {self.next_seq}, "
                f"got {event.seq}"
            )

    def _write(self, event: ServeEvent) -> ServeEvent:
        line = event.to_json()
        self._writer.write_line(line)
        self.event_bytes += len(line) + 1
        self.active_bytes += len(line) + 1
        self.events.append(event)
        self.last_seq = event.seq
        self.last_kind = event.kind
        return event

    def all_events(self) -> list[ServeEvent]:
        """Full readable history (all the flat file recovered)."""
        return self.events

    def close(self) -> None:
        self._writer.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class WriteAheadLog(_WalBase):
    """Append-only, fsync-durable single-file log with torn-write recovery.

    Opening a fresh path writes the versioned header; opening an
    existing path *recovers*: the header is version-checked, every
    complete event line is parsed into :attr:`events` (ready for
    :meth:`recover_state`), and a torn final line is warned about,
    truncated off the file, and recorded in :attr:`torn_tail_dropped`.
    Corruption before the final line raises.  ``append`` enforces
    gapless sequence numbers and is durable (flush + fsync by default)
    before it returns — the *write-ahead* in the name.

    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "wal.jsonl")
    >>> wal = WriteAheadLog(path)
    >>> _ = wal.append(ServeEvent(seq=0, kind="init",
    ...                           payload={"machines": 4}))
    >>> wal.close()
    >>> reopened = WriteAheadLog(path)      # crash-recovery path
    >>> [e.kind for e in reopened.events]
    ['init']
    >>> reopened.close()
    """

    def __init__(self, path: str | Path, *, fsync: bool = True,
                 meta: dict | None = None,
                 recorder: Recorder = NULL_RECORDER):
        super().__init__(fsync, meta, recorder)
        self.path = Path(path)
        if self.path.exists() and self.path.stat().st_size > 0:
            self._recover(_plan_flat(self._read(self.path)))
        else:
            self._open_fresh(self.path, {
                "version": WAL_VERSION,
                "format": "repro.serve.wal",
                "meta": self.meta,
            })

    def recover_state(self):
        """Fold the recovered events into a fresh ``ServeState``."""
        return _fold_state(self.anchor_snapshot, self.events)

    def append(self, event: ServeEvent) -> ServeEvent:
        """Durably append one event; returns it for chaining."""
        self._expect(event)
        return self._write(event)

    @classmethod
    def load_events(cls, path: str | Path) -> list[ServeEvent]:
        """Read a WAL's events without opening it for writing.

        Tolerates a torn final line (with a warning) exactly like the
        recovery path; raises :class:`~repro.errors.ConfigurationError`
        for a missing header, a newer version, a sequence gap, or real
        mid-file corruption.

        >>> import tempfile, os
        >>> path = os.path.join(tempfile.mkdtemp(), "wal.jsonl")
        >>> with WriteAheadLog(path) as wal:
        ...     wal.append(ServeEvent(seq=0, kind="init"))
        ServeEvent(seq=0, kind='init', payload={})
        >>> [e.seq for e in WriteAheadLog.load_events(path)]
        [0]
        """
        plan = _plan_flat(read_wal_file(Path(path)))
        for msg in plan.warnings:
            warnings.warn(msg, UserWarning, stacklevel=2)
        return plan.chain[0].records
