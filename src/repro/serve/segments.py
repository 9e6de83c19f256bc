"""Segmented WAL: snapshot-anchored segments, bounded recovery.

A month-long control plane cannot afford recovery that replays from
genesis.  :class:`SegmentedWriteAheadLog` keeps the same append-only,
fsync-before-ack discipline as :class:`~repro.serve.wal.WriteAheadLog`,
but splits the log across a *directory* of segment files::

    wal/
      segment-00000000.jsonl     # base_seq 0, no snapshot (genesis)
      segment-00000001.jsonl     # base_seq 103, snapshot of state@102
      segment-00000002.jsonl     # base_seq 218, no snapshot
      segment-00000003.jsonl     # base_seq 331, snapshot of state@330

Every segment is one WAL file in the format :mod:`repro.serve.wal`
defines and :func:`~repro.serve.wal.read_wal_file` parses — the flat
log is the one-segment case of this one.  One size, two rules.  A
segment is sealed once it holds ``segment_bytes`` of *event lines*
(its header, snapshot included, does not count).  The next header
states its ``base_seq`` and is an *anchor* — carries a
:meth:`~repro.serve.ServeState.snapshot` of the state before its first
event — only if the events since the newest anchor weigh at least what
that anchor's snapshot does (genesis: nothing, so the first rotation
anchors).  So every snapshot but the newest is paid for by the events
after it — disk stays linear in history — and recovery, which restores
the newest usable anchor and folds only the events after it, folds at
most ``max(segment_bytes, anchor bytes) + segment_bytes`` (+ one
event) of log, bitwise-equal to the full-genesis fold (drill suite).
Both counts are read off the files on open, never remembered, so a
restarted server writes the directory an uninterrupted one would.

A reopen verifies and folds from the newest clean anchor forward.  It
reads segment files newest first and stops at the first anchor whose
chain to the tail is clean and contiguous; the files behind it are
never opened and are listed, by index, in ``unverified`` — not
verified, not vouched for.  Only when that chain fails does a reopen
read every file and plan over the whole directory, as
:meth:`SegmentedWriteAheadLog.inspect` — the full audit behind
``repro serve --replay`` — always does.

What a directory adds over the single file is corruption *survival*,
not just detection.  A corrupt segment **behind** the newest anchor
costs history, never state: the audit reports the exact sequence
numbers that became unreadable, and a reopen that falls back to the
full parse quarantines it (renamed ``*.quarantined``).  Corruption
**after** the newest anchor is truncated at the first bad record, the
original preserved as a quarantine copy, and the loss reported honestly
(``state_loss: true``) instead of silently replaying garbage.  A final
segment whose header never became a complete line is *not* corruption:
the crash happened mid-rotation, before anything in that segment could
be acknowledged, so it is dropped like a torn tail.

Recovery is computed as a pure *plan* over the parsed segments before a
single byte is touched — one planner, given the suffix a reopen read or
the whole directory; :meth:`SegmentedWriteAheadLog.inspect` exposes the
whole-directory plan read-only — for a directory or a flat file — so
``repro serve --replay`` can audit a live server's WAL without
renaming, truncating, or opening a writer.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.errors import ConfigurationError, LogIntegrityError
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.serve.wal import (
    SEGMENT_FORMAT,
    WAL_VERSION,
    ServeEvent,
    WriteAheadLog,
    _fold_state,
    _plan_flat,
    _RecoveryPlan,
    _WalBase,
    _WalFile,
    read_wal_file,
)

__all__ = ["SegmentedWriteAheadLog", "SegmentInspection", "open_wal",
           "DEFAULT_SEGMENT_BYTES"]

#: bytes of event lines per segment when the caller does not pick (64 KiB
#: is a few hundred events; the fold bound in the module docstring)
DEFAULT_SEGMENT_BYTES = 64 * 1024

_SEGMENT_GLOB = "segment-*.jsonl"


def _segment_name(index: int) -> str:
    return f"segment-{index:08d}.jsonl"


def _segment_index(path: Path) -> int:
    """The index a segment filename claims (``segment-00000007`` -> 7).

    Filenames — not directory-listing positions — are the durable
    identity of a segment: after a quarantine rename removes a file,
    the survivors keep their numbers, so the next rotation can never
    collide with (and truncate) a live segment.
    """
    stem = path.name[len("segment-"):-len(".jsonl")]
    if not stem.isdigit():
        raise ConfigurationError(
            f"{path}: not a WAL segment filename "
            f"(expected segment-<8 digits>.jsonl)"
        )
    return int(stem)


def _read_segments(
    dirpath: Path, read: Callable = read_wal_file, *,
    from_anchor: bool = False,
) -> tuple[list[_WalFile], list[int]]:
    """Parse a segment directory newest file first.

    Returns the parsed files oldest first, and the indices of the older
    files left unread.  With ``from_anchor`` the walk stops at the first
    anchor whose chain to the tail is clean and contiguous.  Once the
    chain fails (a corrupt record, a gap, a torn non-final line, an
    empty final header) every older anchor's chain, which contains it,
    fails too, so every file is read and the plan is the full
    directory's.
    """
    paths = sorted(dirpath.glob(_SEGMENT_GLOB))
    indices = [_segment_index(p) for p in paths]
    segs: list[_WalFile] = []
    clean = from_anchor
    for k in range(len(paths) - 1, -1, -1):
        seg = read(paths[k], indices[k])
        if segs and seg.torn is not None:
            # only the file being appended to can be torn by a crash
            seg.error = seg.error or ConfigurationError(
                f"torn line in non-final segment ({len(seg.torn)} bytes)")
            seg.torn = None
        clean = clean and seg.error is None \
            and (not segs or segs[0].base_seq == seg.end_seq)
        segs.insert(0, seg)
        if clean and seg.is_anchor:
            return segs, indices[:k]
    return segs, []


def _find_anchor(segs: list[_WalFile]) -> int | None:
    """Position (in ``segs``) of the newest anchor whose *header* (and
    thus snapshot) survived.

    No older anchor can do better: its chain to the tail contains this
    one's, so it is clean only if this one's is.  When this chain is
    damaged, its valid prefix still replays and the truncation plan
    handles the rest.  A reopen whose read stopped at a clean anchor
    hands over only that chain, so the answer is position 0; a corrupt
    segment behind it was left unread, and the full audit, not the
    reopen, reports it.
    """
    return next((i for i in range(len(segs) - 1, -1, -1)
                 if segs[i].is_anchor), None)


def _quarantine(plan: _RecoveryPlan, seg: _WalFile, reason: object,
                first: int | None, last: int | None, *,
                state_loss: bool, op: str = "quarantine") -> None:
    """Plan setting ``seg`` aside, with the report of what that loses."""
    plan.actions.append({"op": op, "seg": seg, "report": {
        "segment": seg.index,
        "path": str(seg.path.with_name(seg.path.name + ".quarantined")),
        "reason": str(reason),
        "lost_first_seq": first,
        "lost_last_seq": last,
        "state_loss": state_loss,
    }})


def _plan_recovery(dirpath: Path, segs: list[_WalFile]) -> _RecoveryPlan:
    plan = _RecoveryPlan()
    segs = list(segs)
    if len(segs) >= 2 and segs[-1].complete_lines == 0:
        # crash mid-rotation: the new segment's header never became a
        # complete line, so nothing in this segment was ever written —
        # let alone acknowledged.  An unacked torn tail, not data loss.
        # (A *sole* segment in this shape is indistinguishable from a
        # file that was never a WAL, so that stays a refusal below.)
        tail = segs.pop()
        plan.torn_tail = tail.torn or ""
        plan.actions.append({"op": "drop_unacked_tail", "seg": tail})
        plan.warnings.append(
            f"{tail.path}: dropped final segment with a torn/empty "
            f"header ({len(tail.torn or '')} bytes, crash "
            f"mid-rotation?); it held no acknowledged record"
        )
    anchor = _find_anchor(segs)
    if anchor is None:
        raise ConfigurationError(
            f"{dirpath}: no usable snapshot anchor survives in any "
            f"segment — the log cannot be recovered"
        )
    for pos, s in enumerate(segs[:anchor]):
        if s.error is None:
            continue
        # corrupt pre-anchor segment: pure history loss, the newer
        # snapshot anchor covers the state
        lost_first = s.base_seq if s.base_seq >= 0 else None
        nxt = next((t for t in segs[pos + 1:] if t.base_seq >= 0), None)
        lost_last = nxt.base_seq - 1 if nxt is not None else None
        _quarantine(plan, s, s.error, lost_first, lost_last,
                    state_loss=False)
        plan.warnings.append(
            f"{s.path}: quarantined corrupt WAL segment "
            f"({s.error}); history seqs "
            f"[{lost_first}..{lost_last}] unreadable, state intact "
            f"(covered by a newer snapshot anchor)"
        )
    chain = segs[anchor:]
    break_at = gap_at = None
    for j, s in enumerate(chain):
        if j > 0 and s.base_seq >= 0 \
                and s.base_seq != chain[j - 1].end_seq:
            gap_at = j
            break
        if s.error is not None:
            break_at = j
            break
    if gap_at is not None:
        _plan_gap(plan, chain, gap_at)
    elif break_at is not None:
        _plan_truncation(plan, chain, break_at)
    else:
        plan.end_tail(chain[-1])
        plan.chain = chain
    return plan


def _plan_gap(plan: _RecoveryPlan, chain: list[_WalFile],
              gap_at: int) -> None:
    """A clean-looking chain with a hole in it (segment file removed?).

    The events past the hole cannot fold — the state would refuse the
    sequence gap — so the log honestly ends at the hole: every segment
    after it is quarantined whole and the missing range is named,
    instead of surfacing later as an opaque apply-time error.
    """
    prev_end = chain[gap_at - 1].end_seq
    first = chain[gap_at]
    known_tail = max(
        (s.base_seq + s.total_records - 1 for s in chain[gap_at:]
         if s.base_seq >= 0),
        default=None,
    )
    for j, s in enumerate(chain[gap_at:]):
        reason = (
            f"sequence gap: segment starts at seq {s.base_seq}, "
            f"expected {prev_end} — segment file(s) covering seqs "
            f"[{prev_end}..{s.base_seq - 1}] are missing"
            if j == 0 else "follows a sequence gap"
        )
        _quarantine(plan, s, reason,
                    s.base_seq if s.base_seq >= 0 else None,
                    s.base_seq + s.total_records - 1
                    if s.base_seq >= 0 and s.total_records > 0 else None,
                    state_loss=True)
    plan.warnings.append(
        f"{first.path}: sequence gap in the recovery range — acked "
        f"seqs [{prev_end}..{first.base_seq - 1}] are missing "
        f"(segment file removed?); the log ends at seq {prev_end - 1}, "
        f"acked seqs [{prev_end}..{known_tail}] LOST (readable "
        f"segments after the gap kept as quarantine copies)"
    )
    plan.chain = chain[:gap_at]


def _plan_truncation(plan: _RecoveryPlan, chain: list[_WalFile],
                     bad_at: int) -> None:
    """Post-anchor corruption: keep the valid prefix, report the loss.

    The corrupt record and everything after it *were* acknowledged;
    refusing to silently replay garbage means admitting that tail is
    gone.  The original segment is preserved as a ``.quarantined``
    copy, the live file is truncated to its valid prefix, later
    segments are quarantined whole, and the report says exactly which
    sequences were lost.
    """
    bad = chain[bad_at]
    known_tail = max(
        (s.base_seq + s.total_records - 1 for s in chain
         if s.base_seq >= 0),
        default=bad.end_seq - 1,
    )
    # a segment whose own header is unreadable has nothing salvageable
    # in place: quarantine it whole and end the log at the previous
    # segment (bad_at >= 1: the anchor segment always has a valid header)
    headless = bad.base_seq < 0
    lost_first = chain[bad_at - 1].end_seq if headless else bad.end_seq
    _quarantine(plan, bad, bad.error, lost_first,
                known_tail if known_tail >= lost_first else None,
                state_loss=True,
                op="quarantine" if headless else "copy_quarantine")
    for s in chain[bad_at + 1:]:
        _quarantine(plan, s, "follows a truncated corrupt segment",
                    s.base_seq if s.base_seq >= 0 else None,
                    s.end_seq - 1 if s.base_seq >= 0 else None,
                    state_loss=True)
    plan.warnings.append(
        f"{bad.path}: corrupt record inside the recovery range "
        f"({bad.error}); truncated at seq {lost_first}, acked "
        f"seqs [{lost_first}..{known_tail}] LOST (quarantine copy "
        f"kept)"
    )
    plan.chain = chain[:bad_at] if headless else chain[:bad_at + 1]


@dataclass
class SegmentInspection:
    """Read-only recovery view of a WAL (segment directory or flat file).

    The full audit: every segment parsed, the same anchor and foldable
    events a reopen recovers, and a verdict on every corrupt file —
    including the ones behind the anchor that a reopen leaves
    unverified — computed without renaming, truncating, or opening a
    writer, so it is safe against a live server's WAL.  ``quarantined``
    reports point at the live files; ``notes`` holds the warnings a
    full-parse recovery would emit.

    >>> import tempfile
    >>> root = tempfile.mkdtemp() + "/wal"
    >>> wal = SegmentedWriteAheadLog(root, fsync=False)
    >>> _ = wal.append(ServeEvent(seq=0, kind="round",
    ...                           payload={"round": 0, "dt": 1.0}))
    >>> wal.close()
    >>> info = SegmentedWriteAheadLog.inspect(root)
    >>> (len(info.events), info.quarantined, info.torn_tail)
    (1, [], None)
    """

    dir: Path
    segment_count: int
    anchor_base_seq: int
    anchor_snapshot: str | None
    events: list[ServeEvent]
    quarantined: list[dict]
    torn_tail: str | None
    notes: list[str]

    @property
    def last_seq(self) -> int:
        return (self.events[-1].seq if self.events
                else self.anchor_base_seq - 1)

    def recover_state(self):
        """Fold anchor + events into a ``ServeState`` (pure, no I/O)."""
        return _fold_state(self.anchor_snapshot, self.events)


class SegmentedWriteAheadLog(_WalBase):
    """Directory-of-segments WAL with snapshot anchors (module docstring).

    Drop-in for :class:`~repro.serve.wal.WriteAheadLog` from the
    server's point of view: ``append`` is durable-before-return and
    gapless, ``events`` holds what recovery needs to fold, and
    :meth:`recover_state` rebuilds the control-plane state — from the
    newest snapshot anchor, not from genesis.  Opening reads only the
    newest clean anchor's chain (module docstring); ``unverified``
    names the segments behind it.  Assign
    :attr:`snapshot_provider` (a callable returning a
    ``ServeState.snapshot()`` string) for rotations to anchor with.

    >>> import tempfile
    >>> wal = SegmentedWriteAheadLog(tempfile.mkdtemp() + "/wal",
    ...                              segment_bytes=100, fsync=False)
    >>> for i in range(4):
    ...     _ = wal.append(ServeEvent(seq=i, kind="round",
    ...                               payload={"round": i, "dt": 1.0}))
    >>> wal.segment_count > 1           # 100 B of events seal a segment
    True
    >>> wal.last_seq
    3
    >>> wal.close()
    """

    def __init__(self, path: str | Path, *, fsync: bool = True,
                 meta: dict | None = None,
                 segment_bytes: int = DEFAULT_SEGMENT_BYTES,
                 snapshot_provider: Callable[[], str] | None = None,
                 recorder: Recorder = NULL_RECORDER):
        super().__init__(fsync, meta, recorder)
        self.dir = Path(path)
        self.segment_bytes = int(segment_bytes)
        if self.segment_bytes <= 0:
            raise ConfigurationError("segment_bytes must be > 0")
        self.snapshot_provider = snapshot_provider
        if self.dir.exists() and not self.dir.is_dir():
            raise ConfigurationError(
                f"{self.dir}: segmented WAL path is a file, not a "
                f"directory (did you mean a plain --wal?)"
            )
        self.dir.mkdir(parents=True, exist_ok=True)
        segs, self.unverified = _read_segments(self.dir, self._read,
                                               from_anchor=True)
        if not (segs and self._recover(_plan_recovery(self.dir, segs))):
            self._open_segment(0, 0, None)

    # -- layout ------------------------------------------------------------
    @property
    def segment_count(self) -> int:
        return len(list(self.dir.glob(_SEGMENT_GLOB)))

    def _open_segment(self, index: int, base_seq: int,
                      snapshot: str | None) -> None:
        self._open_fresh(self.dir / _segment_name(index), {
            "version": WAL_VERSION,
            "format": SEGMENT_FORMAT,
            "segment": index,
            "base_seq": base_seq,
            "snapshot": snapshot,
            "meta": self.meta,
        }, index)

    @classmethod
    def inspect(cls, path: str | Path) -> SegmentInspection:
        """Plan recovery for a WAL without executing it.

        Accepts a segment directory or a flat WAL file.  Parses every
        file — those a reopen leaves unverified too — picks the anchor,
        and reports exactly what :meth:`recover_state` would fold and
        every corrupt segment — but performs **zero** writes: no
        renames, no truncation, no writer.  Safe to run against the WAL
        of a live server (``repro serve --replay`` uses this).
        """
        p = Path(path)
        if p.is_file():
            segs = [read_wal_file(p)]
            plan = _plan_flat(segs[0])
        elif p.is_dir():
            segs, _ = _read_segments(p)
            if not segs:
                raise ConfigurationError(f"{p}: no WAL segments found")
            plan = _plan_recovery(p, segs)
        else:
            raise ConfigurationError(
                f"{p}: not a segment directory or a WAL file")
        chain = plan.chain
        return SegmentInspection(
            dir=p,
            segment_count=len(segs),
            anchor_base_seq=chain[0].base_seq if chain else 0,
            anchor_snapshot=chain[0].snapshot if chain else None,
            events=[e for s in chain for e in s.records],
            # the reports point at the live files, not where a real
            # recovery would move them
            quarantined=[{**act["report"], "path": str(act["seg"].path)}
                         for act in plan.actions if "report" in act],
            torn_tail=plan.torn_tail,
            notes=plan.warnings,
        )

    # -- append ------------------------------------------------------------
    def append(self, event: ServeEvent) -> ServeEvent:
        """Durably append one event, rotating segments as needed."""
        self._expect(event)
        if self.active_bytes >= self.segment_bytes:
            self._rotate()
        return self._write(event)

    def _rotate(self) -> None:
        """Seal the active segment and open the next one.

        The new header is an anchor — embeds ``snapshot_provider()``,
        the state *as of* ``next_seq - 1`` (what the server's
        append-then-apply discipline guarantees the provider returns
        here) — only if the events since the newest anchor weigh at
        least what its snapshot does; recovery (and :attr:`events`)
        then restart from here.
        """
        next_index = self._active_index + 1
        next_path = self.dir / _segment_name(next_index)
        if next_path.exists():
            raise LogIntegrityError(
                f"{next_path}: refusing to rotate onto an existing "
                f"segment file — index bookkeeping is out of sync with "
                f"the directory, and opening it would truncate durable "
                f"history"
            )
        self._writer.close()
        due = self.event_bytes >= len(self.anchor_snapshot or "")
        snap = self.snapshot_provider() \
            if due and self.snapshot_provider else None
        self._open_segment(next_index, self.next_seq, snap)
        if snap is not None:
            self.anchor_snapshot = snap
            self.anchor_base_seq = self.next_seq
            self.events = []
            self.event_bytes = 0

    # -- recovery views ----------------------------------------------------
    def recover_state(self):
        """Rebuild the control-plane state from anchor + tail events.

        Restores the newest snapshot anchor and folds only the events
        after it — a bounded stretch of log (module docstring), not the
        history.  Bitwise-equal to a genesis replay of the full history
        (asserted by the drill suite).
        """
        return _fold_state(self.anchor_snapshot, self.events)

    def all_events(self) -> list[ServeEvent]:
        """Full readable history across every live segment.

        Quarantined segments are skipped (their loss is recorded in
        :attr:`quarantined`); a corrupt segment left unverified gives
        its valid prefix (``inspect`` reports the rest).  Used by drills
        to audit global invariants like at-most-one admission per job
        name.
        """
        return [e for s in _read_segments(self.dir)[0] for e in s.records]


def open_wal(path: str | Path, *, fsync: bool = True,
             meta: dict | None = None,
             segment_bytes: int | None = None,
             snapshot_provider: Callable[[], str] | None = None,
             recorder: Recorder = NULL_RECORDER):
    """Open the right WAL flavor for a path.

    An existing *file* is always a single-file
    :class:`~repro.serve.wal.WriteAheadLog` (resuming keeps its
    format); an existing *directory*, or any path with
    ``segment_bytes`` set, is a :class:`SegmentedWriteAheadLog`.

    >>> import tempfile, os
    >>> root = tempfile.mkdtemp()
    >>> type(open_wal(os.path.join(root, "a.jsonl"),
    ...               fsync=False)).__name__
    'WriteAheadLog'
    >>> type(open_wal(os.path.join(root, "b"), fsync=False,
    ...               segment_bytes=4096)).__name__
    'SegmentedWriteAheadLog'
    """
    p = Path(path)
    if p.is_dir() or (segment_bytes is not None and not p.is_file()):
        return SegmentedWriteAheadLog(
            p, fsync=fsync, meta=meta,
            segment_bytes=segment_bytes or DEFAULT_SEGMENT_BYTES,
            snapshot_provider=snapshot_provider, recorder=recorder,
        )
    return WriteAheadLog(p, fsync=fsync, meta=meta, recorder=recorder)
