"""Checksummed, segmented WAL: CRC bit-rot detection, snapshot-anchored
rotation, bounded recovery, and corruption quarantine drills.

The acceptance surface:

* every WAL v2 record carries a CRC; a flipped byte anywhere in the
  file raises :class:`~repro.errors.LogIntegrityError` naming the seq,
  and v1 records (no checksum) still load;
* rotation seals a segment once it holds ``segment_bytes`` of event
  lines and embeds a state snapshot in the new header only when the log
  has outgrown the last one, so both the fold and the bytes on disk stay
  bounded — and the anchored fold is bitwise-equal to a genesis fold;
* a reopen reads from the newest clean anchor forward and leaves the
  segments behind it unverified, so corruption there costs a reopen
  nothing and the full audit (``inspect``) reports it with an exact lost
  seq range and zero state loss; corruption after the anchor truncates
  at the first bad record, keeps a quarantine copy, and reports the
  loss honestly — exactly as a full parse does.
"""

import functools
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serve.wal as wal_module
from repro.errors import ConfigurationError, LogIntegrityError, ReproError
from repro.obs import TraceRecorder
from repro.serve import (
    DEFAULT_SEGMENT_BYTES,
    SegmentedWriteAheadLog,
    ServeConfig,
    ServeEvent,
    ServeServer,
    ServeState,
    TenantSpec,
    WriteAheadLog,
    demo_config,
    demo_traffic,
    open_wal,
    run_script,
)
from repro.jobs import JobSpec
from repro.serve.wal import EVENT_KINDS, read_wal_file
from repro.utils.jsonl import canonical_json, crc32_text

SMALL = ServeConfig(num_machines=4, devices_per_machine=2, num_spares=1,
                    repair_ticks=2, snapshot_interval=10)


def dp(name, workers, iters):
    return JobSpec(name=name, parallelism="dp", num_workers=workers,
                   iterations=iters, batch_size=16)


def round_event(seq):
    return ServeEvent(seq=seq, kind="round",
                      payload={"round": seq, "dt": 1.0})


def fill(wal, n, start=0):
    for seq in range(start, start + n):
        wal.append(round_event(seq))


#: a payload whose line holds \u escapes, a signed zero, an exponent and
#: nesting — the spellings a re-encode normalises
PAYLOAD = {"name": "café-ü", "x": -0.0, "y": 1e20,
           "z": [1, [2.5, "a"], {"q": None}]}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


# -- per-record CRC (WAL schema v2) -----------------------------------------

class TestRecordChecksums:
    def test_every_record_carries_a_crc(self, tmp_path):
        path = tmp_path / "w.jsonl"
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append(ServeEvent(seq=0, kind="init"))
            wal.append(round_event(1))
        for line in path.read_text().splitlines()[1:]:
            d = json.loads(line)
            body = canonical_json({"seq": d["seq"], "k": d["k"],
                                   "p": d["p"]})
            assert d["c"] == crc32_text(body)

    def test_midfile_bit_rot_detected(self, tmp_path):
        path = tmp_path / "w.jsonl"
        with WriteAheadLog(path, fsync=False) as wal:
            fill(wal, 3)
        lines = path.read_text().splitlines()
        # flip a payload byte in the *middle* record; the line is still
        # valid JSON, so only the checksum can catch it
        lines[2] = lines[2].replace('"dt":1.0', '"dt":2.0')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LogIntegrityError, match="seq 1.*checksum"):
            WriteAheadLog.load_events(path)

    def test_v1_records_without_crc_still_load(self, tmp_path):
        path = tmp_path / "w.jsonl"
        events = [ServeEvent(seq=0, kind="init"), round_event(1)]
        lines = [canonical_json({"version": 1, "meta": {}})] + [
            canonical_json({"seq": e.seq, "k": e.kind, "p": e.payload})
            for e in events
        ]
        path.write_text("\n".join(lines) + "\n")
        loaded = WriteAheadLog.load_events(path)
        assert [e.seq for e in loaded] == [0, 1]

    def test_error_names_path_and_seq(self, tmp_path):
        path = tmp_path / "w.jsonl"
        with WriteAheadLog(path, fsync=False) as wal:
            fill(wal, 2)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"round":0', '"round":7')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LogIntegrityError, match=str(path)):
            WriteAheadLog.load_events(path)

    # one-bit flips that parse to the same value: a checksum of the
    # re-encoded parse cannot see them, one of the line's bytes does
    @pytest.mark.parametrize("before, after", [
        ("\\u00e9", "\\u00E9"),     # hex case of a \u escape
        ("1e+20", "1E+20"),         # exponent marker
    ])
    def test_same_value_bit_flip_refused(self, tmp_path, before, after):
        path = tmp_path / "w.jsonl"
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append(ServeEvent(seq=0, kind="init"))
            wal.append(ServeEvent(seq=1, kind="submit", payload=PAYLOAD))
            wal.append(round_event(2))
        lines = path.read_text().splitlines()
        assert before in lines[2]
        flipped = lines[2].replace(before, after)
        assert json.loads(flipped) == json.loads(lines[2])
        lines[2] = flipped
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LogIntegrityError,
                           match=f"{path}.*seq 1.*checksum"):
            WriteAheadLog.load_events(path)

    def test_hand_reformatted_line_refused(self, tmp_path):
        path = tmp_path / "w.jsonl"
        with WriteAheadLog(path, fsync=False) as wal:
            fill(wal, 2)
        lines = path.read_text().splitlines()
        lines[1] = json.dumps(json.loads(lines[1]))    # ", " and ": "
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LogIntegrityError, match="seq 0.*checksum"):
            WriteAheadLog.load_events(path)

    def test_every_one_bit_flip_of_a_record_refused(self, tmp_path):
        path = tmp_path / "w.jsonl"
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append(ServeEvent(seq=0, kind="init"))
            wal.append(ServeEvent(seq=1, kind="submit", payload=PAYLOAD))
            wal.append(round_event(2))
        lines = path.read_text().splitlines()
        middle = lines[2]
        damaged = tmp_path / "d.jsonl"
        for i, ch in enumerate(middle):
            for k in range(7):
                flipped = middle[:i] + chr(ord(ch) ^ 1 << k) + middle[i + 1:]
                damaged.write_text(
                    "\n".join([*lines[:2], flipped, lines[3]]) + "\n")
                parsed = read_wal_file(damaged)
                assert parsed.error is not None, (i, k, flipped)
                assert [e.seq for e in parsed.records] == [0], (i, k)

    @settings(deadline=None, max_examples=100)
    @given(seq=st.integers(0, 2**40), kind=st.sampled_from(EVENT_KINDS),
           payload=st.dictionaries(st.text(), JSON_VALUES, max_size=6))
    def test_line_is_the_two_encode_form(self, seq, kind, payload):
        event = ServeEvent(seq=seq, kind=kind, payload=payload)
        body = canonical_json({"seq": seq, "k": kind, "p": payload})
        assert event.to_json() == canonical_json(
            {"seq": seq, "k": kind, "p": payload, "c": crc32_text(body)})
        assert ServeEvent.from_json(event.to_json()) == event


# -- rotation and anchored recovery -----------------------------------------

class TestSegmentRotation:
    def test_rotation_seals_segments(self, tmp_path):
        wal = SegmentedWriteAheadLog(tmp_path / "wal", fsync=False,
                                     segment_bytes=256)
        fill(wal, 12)
        wal.close()
        assert wal.segment_count > 2
        assert wal.last_seq == 11

    def test_recovery_is_o_segment_not_o_history(self, tmp_path):
        with ServeServer(tmp_path / "wal", demo_config(), fsync=False,
                         segment_bytes=2048) as server:
            run_script(server, demo_traffic())
            total = server.wal.next_seq
            snap = server.state.snapshot()
        revived = SegmentedWriteAheadLog(tmp_path / "wal", fsync=False)
        # the anchored fold touches only the tail segment's events...
        assert len(revived.events) < total
        assert revived.anchor_base_seq > 0
        # ...yet lands on exactly the state a genesis fold produces
        assert revived.recover_state().snapshot() == snap
        assert ServeState.replay(revived.all_events()).snapshot() == snap
        revived.close()

    def test_server_resumes_from_segments(self, tmp_path):
        with ServeServer(tmp_path / "wal", SMALL, fsync=False,
                         segment_bytes=512) as server:
            server.register_tenant(TenantSpec(name="t"))
            server.submit("t", dp("j", 2, 6))
            server.run()
            snap = server.state.snapshot()
        with ServeServer(tmp_path / "wal", fsync=False) as revived:
            assert revived.recovered
            assert revived.state.snapshot() == snap

    def test_append_resumes_gapless_after_reopen(self, tmp_path):
        wal = SegmentedWriteAheadLog(tmp_path / "wal", fsync=False,
                                     segment_bytes=256)
        fill(wal, 5)
        wal.close()
        wal = SegmentedWriteAheadLog(tmp_path / "wal", fsync=False,
                                     segment_bytes=256)
        assert wal.next_seq == 5
        fill(wal, 3, start=5)
        wal.close()
        assert [e.seq for e in wal.all_events()] == list(range(8))

    def test_torn_tail_dropped_on_last_segment_only(self, tmp_path):
        wal = SegmentedWriteAheadLog(tmp_path / "wal", fsync=False,
                                     segment_bytes=1 << 20)
        fill(wal, 3)
        wal.close()
        seg = sorted((tmp_path / "wal").glob("segment-*.jsonl"))[-1]
        seg.write_text(seg.read_text() + '{"seq":3,"k":"rou')
        with pytest.warns(UserWarning, match="torn final WAL line"):
            revived = SegmentedWriteAheadLog(tmp_path / "wal",
                                            fsync=False)
        assert revived.last_seq == 2
        assert revived.torn_tail_dropped is not None
        revived.close()


# -- the two rules: rotate on event bytes, anchor when outgrown --------------

def write_log(wal_dir, events, segment_bytes, reopen_every=None):
    """Append ``events`` the way the server does (append, then apply, the
    live state's snapshot anchoring rotations), optionally restarting —
    close, reopen, recover — before every ``reopen_every``-th append.
    Returns the final live state."""
    wal = SegmentedWriteAheadLog(wal_dir, fsync=False,
                                 segment_bytes=segment_bytes)
    state = ServeState()
    wal.snapshot_provider = state.snapshot
    for i, event in enumerate(events):
        if reopen_every and i % reopen_every == 0:
            wal.close()
            wal = SegmentedWriteAheadLog(wal_dir, fsync=False,
                                         segment_bytes=segment_bytes)
            state = wal.recover_state()
            wal.snapshot_provider = state.snapshot
        wal.append(event)
        state.apply(event)
    wal.close()
    return state


def segments_of(wal_dir):
    """``[(path, header, event_bytes)]`` of a segment directory."""
    out = []
    for path in sorted(wal_dir.glob("segment-*.jsonl")):
        header, *lines = path.read_text().splitlines()
        out.append((path, json.loads(header),
                    sum(len(line) + 1 for line in lines)))
    return out


def dir_bytes(wal_dir):
    return {p.name: p.read_bytes() for p in wal_dir.iterdir()}


def strip_snapshot(path):
    header, _, records = path.read_text().partition("\n")
    header = {**json.loads(header), "snapshot": None}
    path.write_text(canonical_json(header) + "\n" + records)


@st.composite
def event_streams(draw):
    """Events of drawn sizes: a ``tenant`` event grows the state (and so
    the next snapshot), a padded ``round`` event grows only the log."""
    events, rounds = [], 0
    for seq, (grows, pad) in enumerate(draw(st.lists(
            st.tuples(st.booleans(), st.integers(0, 400)),
            min_size=1, max_size=60))):
        if grows:
            events.append(ServeEvent(seq=seq, kind="tenant", payload={
                "name": f"t{seq}-" + "x" * pad}))
        else:
            events.append(ServeEvent(seq=seq, kind="round", payload={
                "round": rounds, "dt": 1.0, "pad": "x" * pad}))
            rounds += 1
    return events


class TestRotationAndAnchorRules:
    @settings(deadline=None, max_examples=60)
    @given(events=event_streams(), segment_bytes=st.integers(1, 2000))
    def test_generated_logs_meet_both_bounds(self, events, segment_bytes):
        with tempfile.TemporaryDirectory() as root:
            wal_dir = Path(root) / "wal"
            live = write_log(wal_dir, events, segment_bytes).snapshot()
            segs = segments_of(wal_dir)
            one_event = max(len(e.to_json()) + 1 for e in events)

            # rule 1: a segment is sealed by the first append that finds
            # segment_bytes of event lines in it — header not counted
            for _, _, size in segs[:-1]:
                assert segment_bytes <= size < segment_bytes + one_event
            assert segs[-1][2] < segment_bytes + one_event

            # rule 2: a rotation anchors exactly when the events since
            # the newest anchor weigh what its snapshot does (genesis: 0)
            anchors, anchor_bytes, since = [0], 0, 0
            for i, (_, header, size) in enumerate(segs):
                anchored = header["snapshot"] is not None
                if i:
                    assert anchored == (since >= anchor_bytes)
                if anchored:
                    anchors.append(i)
                    anchor_bytes, since = len(header["snapshot"]), 0
                since += size
            # ... so every snapshot but the newest is paid for by the
            # events after it, and the anchored fold is bounded
            snapshots = [len(h["snapshot"] or "") for _, h, _ in segs]
            assert sum(snapshots) - anchor_bytes \
                <= sum(size for _, _, size in segs)
            assert since <= max(segment_bytes, anchor_bytes) \
                + segment_bytes + one_event

            # the fold from the newest anchor, from the one before it and
            # from genesis all land on the live state
            for start in (anchors[-1], anchors[-2:][0], 0):
                for path, _, _ in segs[start + 1:]:
                    strip_snapshot(path)
                info = SegmentedWriteAheadLog.inspect(wal_dir)
                assert info.anchor_base_seq == segs[start][1]["base_seq"]
                assert info.recover_state().snapshot() == live
            assert len(info.events) == len(events)

    @settings(deadline=None, max_examples=40)
    @given(events=event_streams(), segment_bytes=st.integers(1, 2000),
           k=st.integers(1, 7))
    def test_restarts_leave_the_same_bytes(self, events, segment_bytes, k):
        """The counters are a function of the log alone: a server that
        restarts before every k-th append writes what one that never
        stopped writes."""
        with tempfile.TemporaryDirectory() as root:
            once, restarted = Path(root) / "once", Path(root) / "restarted"
            a = write_log(once, events, segment_bytes)
            b = write_log(restarted, events, segment_bytes, reopen_every=k)
            assert a.snapshot() == b.snapshot()
            assert dir_bytes(restarted) == dir_bytes(once)

    def test_restart_at_every_position_leaves_the_same_bytes(self, tmp_path):
        # a restart before *every* append hits each position there is:
        # mid-segment, right after an anchored rotation, right after an
        # unanchored one (the stream has both kinds, asserted below)
        events = [ServeEvent(seq=s, kind="tenant",
                             payload={"name": f"tenant-{s}"})
                  for s in range(40)]
        write_log(tmp_path / "once", events, 300)
        write_log(tmp_path / "restarted", events, 300, reopen_every=1)
        headers = [h for _, h, _ in segments_of(tmp_path / "once")][1:]
        assert any(h["snapshot"] for h in headers)
        assert not all(h["snapshot"] for h in headers)
        assert dir_bytes(tmp_path / "restarted") \
            == dir_bytes(tmp_path / "once")


class TestNoRotationStormAtTheDefaultSize:
    """The shape of ``bench/``'s ``serve_burst_segmented``: once the
    snapshot outgrew ``segment_bytes`` the old file-size rule rotated on
    every append and embedded the whole state each time — 94 files /
    7.9 MB for 73 KB of events at 105 jobs, 498 files / 71.7 MB at 200."""

    def burst(self, wal_dir, jobs):
        config = ServeConfig(num_machines=8, devices_per_machine=4,
                             num_spares=1)
        with ServeServer(wal_dir, config, fsync=False,
                         segment_bytes=DEFAULT_SEGMENT_BYTES) as server:
            for t in range(4):
                server.register_tenant(TenantSpec(name=f"tenant-{t}"))
            for j in range(jobs):
                verdict, _ = server.submit(f"tenant-{j % 4}", JobSpec(
                    name=f"job-{j}", parallelism="dp",
                    num_workers=2 + j % 3, iterations=2 + (j // 3) % 3))
                assert verdict == "accepted"
                if (j + 1) % 35 == 0:
                    server.tick()
                    server.tick()
            server.run()
            live = server.state.snapshot()
        files = list(wal_dir.iterdir())
        event_bytes = sum(size for _, _, size in segments_of(wal_dir))
        return live, len(files), sum(f.stat().st_size for f in files), \
            event_bytes

    def test_bench_burst_stays_in_three_files(self, tmp_path):
        live, files, on_disk, event_bytes = self.burst(tmp_path / "wal", 105)
        assert files <= 3
        assert on_disk <= 3 * event_bytes
        with ServeServer(tmp_path / "wal", fsync=False) as reopened:
            assert reopened.state.snapshot() == live

    def test_bytes_on_disk_stay_linear_in_history(self, tmp_path):
        _, _, on_disk, event_bytes = self.burst(tmp_path / "wal", 200)
        assert on_disk <= 3 * event_bytes


class TestSnapshotsAreAnOptimisation:
    def test_recovery_without_any_snapshot_anchor(self, tmp_path):
        """The log alone reproduces every answer: strip the snapshot
        from every segment header and the genesis fold still lands on
        the live state — and on what the anchored recovery produced."""
        with ServeServer(tmp_path / "wal", demo_config(), fsync=False,
                         segment_bytes=2048) as server:
            run_script(server, demo_traffic())
            live = server.state.snapshot()
        anchored = SegmentedWriteAheadLog(tmp_path / "wal", fsync=False)
        assert anchored.anchor_snapshot is not None
        anchored_snapshot = anchored.recover_state().snapshot()
        anchored.close()
        segments = sorted((tmp_path / "wal").glob("segment-*.jsonl"))
        assert len(segments) > 2
        for seg in segments:
            strip_snapshot(seg)
        bare = SegmentedWriteAheadLog(tmp_path / "wal", fsync=False)
        assert bare.anchor_snapshot is None and bare.anchor_base_seq == 0
        assert bare.events == bare.all_events()   # folds from genesis
        assert bare.recover_state().snapshot() == live == anchored_snapshot
        bare.close()


# -- corruption drills ------------------------------------------------------

def segmented_run(tmp_path, segment_bytes=2048):
    """A finished demo run over small segments; returns (dir, snapshot)."""
    with ServeServer(tmp_path / "wal", demo_config(), fsync=False,
                     segment_bytes=segment_bytes) as server:
        run_script(server, demo_traffic())
        snap = server.state.snapshot()
    return tmp_path / "wal", snap


class TestCorruptionQuarantine:
    def test_pre_anchor_corruption_is_history_loss_only(self, tmp_path):
        wal_dir, snap = segmented_run(tmp_path)
        segments = sorted(wal_dir.glob("segment-*.jsonl"))
        assert len(segments) > 2
        victim = segments[0]
        lines = victim.read_text().splitlines()
        lines[-1] = lines[-1].replace(":", ";", 1)
        victim.write_text("\n".join(lines) + "\n")
        rotted = victim.read_bytes()
        # the reopen reads from the newest clean anchor forward: the
        # rotted segment behind it is never opened, so nothing to warn
        # about and nothing to quarantine — it is reported unverified
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            revived = SegmentedWriteAheadLog(wal_dir, fsync=False)
        assert revived.quarantined == []
        assert victim.read_bytes() == rotted
        assert revived.unverified[0] == 0
        # zero state loss: recovery still folds to the exact final state
        assert revived.recover_state().snapshot() == snap
        revived.close()
        # the full audit still finds it: history loss, state intact
        (report,) = SegmentedWriteAheadLog.inspect(wal_dir).quarantined
        assert report["segment"] == 0
        assert report["state_loss"] is False
        assert report["lost_first_seq"] == 0
        assert report["lost_last_seq"] is not None
        assert Path(report["path"]) == victim
        # the verdict is stable: the next open is just as quiet
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = SegmentedWriteAheadLog(wal_dir, fsync=False)
        assert again.quarantined == []
        assert again.unverified == revived.unverified
        assert again.recover_state().snapshot() == snap
        again.close()

    def test_post_anchor_corruption_truncates_and_reports(self, tmp_path):
        # no snapshot_provider: the only anchor is genesis, so a rotted
        # record in a middle segment sits inside the recovery range
        wal = SegmentedWriteAheadLog(tmp_path / "wal", fsync=False,
                                     segment_bytes=100)
        fill(wal, 12)
        wal.close()
        segments = sorted((tmp_path / "wal").glob("segment-*.jsonl"))
        assert len(segments) > 3
        victim = segments[len(segments) // 2]
        lines = victim.read_text().splitlines()
        # bit rot that keeps the JSON valid: only the CRC can catch it
        lines[1] = lines[1].replace('"dt":1.0', '"dt":2.0')
        victim.write_text("\n".join(lines) + "\n")
        with pytest.warns(UserWarning, match="LOST"):
            revived = SegmentedWriteAheadLog(tmp_path / "wal",
                                            fsync=False)
        reports = revived.quarantined
        assert reports and all(r["state_loss"] for r in reports)
        first = reports[0]
        assert first["lost_first_seq"] <= first["lost_last_seq"] == 11
        assert Path(first["path"]).exists()  # original preserved
        # the surviving prefix is a coherent, appendable log
        kept = revived.last_seq
        assert 0 <= kept < 11
        revived.append(round_event(kept + 1))
        revived.close()
        clean = SegmentedWriteAheadLog(tmp_path / "wal", fsync=False)
        assert clean.quarantined == []
        assert clean.last_seq == kept + 1
        clean.close()

    def test_unrecoverable_log_refused(self, tmp_path):
        wal_dir = tmp_path / "wal"
        wal_dir.mkdir()
        (wal_dir / "segment-00000000.jsonl").write_text("garbage\n")
        with pytest.raises(ConfigurationError, match="no usable"):
            SegmentedWriteAheadLog(wal_dir, fsync=False)


# -- a reopen reads from its newest anchor forward ---------------------------

def index_of(path):
    return int(path.name[len("segment-"):-len(".jsonl")])


def anchor_chain(wal_dir):
    """Segment indices from the newest anchor (snapshot or genesis) on."""
    segs = segments_of(wal_dir)
    start = max(i for i, (_, header, _) in enumerate(segs)
                if header["snapshot"] is not None or header["base_seq"] == 0)
    return [index_of(path) for path, _, _ in segs[start:]]


def without_path(reports):
    return [{k: v for k, v in r.items() if k != "path"} for r in reports]


def fold(recover_state):
    """The folded snapshot, or the type of what the fold raised (a header
    flip can leave a snapshot that parses but does not restore)."""
    try:
        return recover_state().snapshot()
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc)


@functools.lru_cache(maxsize=None)
def demo_files():
    """``(name, bytes)`` of a finished demo run over 512-byte segments."""
    with tempfile.TemporaryDirectory() as root:
        wal_dir, _ = segmented_run(Path(root), segment_bytes=512)
        return tuple(sorted(dir_bytes(wal_dir).items()))


def damage(wal_dir, kind, file, line, char, bit):
    """One seeded damage: a bit flip in any line, a header flip, a torn
    final line, or a removed segment file.  ``file`` counts from the
    newest file, so small draws land in the anchor chain."""
    files = sorted(wal_dir.glob("segment-*.jsonl"))[::-1]
    if kind == "remove":
        files[file % len(files)].unlink()
        return
    victim = files[0] if kind == "torn" else files[file % len(files)]
    lines = victim.read_text().splitlines()
    if kind == "torn":
        keep = 1 + char % (len(lines[-1]) - 1)
        victim.write_text("".join(ln + "\n" for ln in lines[:-1])
                          + lines[-1][:keep])
        return
    j = 0 if kind == "header" else line % len(lines)
    i = char % len(lines[j])
    lines[j] = lines[j][:i] + chr(ord(lines[j][i]) ^ 1 << bit) \
        + lines[j][i + 1:]
    victim.write_text("\n".join(lines) + "\n")


class TestReopenFromTheAnchor:
    def test_clean_reopen_opens_exactly_the_anchor_chain(self, tmp_path,
                                                         monkeypatch):
        wal_dir, snap = segmented_run(tmp_path, segment_bytes=512)
        chain = anchor_chain(wal_dir)
        indices = [index_of(p) for p in sorted(wal_dir.glob("segment-*"))]
        assert len(chain) < len(indices)
        opened = []
        real = wal_module.read_wal_file

        def spy(path, index=None):
            opened.append(index_of(path))
            return real(path, index)

        monkeypatch.setattr(wal_module, "read_wal_file", spy)
        wal = SegmentedWriteAheadLog(wal_dir, fsync=False)
        wal.close()
        assert opened == chain[::-1]            # newest first, no more
        assert wal.unverified == indices[:-len(chain)]
        assert wal.quarantined == []
        assert wal.recover_state().snapshot() == snap
        info = SegmentedWriteAheadLog.inspect(wal_dir)
        assert wal.events == info.events

    def test_damage_after_the_anchor_falls_back_to_the_full_parse(
            self, tmp_path):
        wal_dir, _ = segmented_run(tmp_path, segment_bytes=512)
        files = sorted(wal_dir.glob("segment-*.jsonl"))
        assert index_of(files[0]) not in anchor_chain(wal_dir)
        for victim in (files[0], files[-1]):   # one behind, one after
            lines = victim.read_text().splitlines()
            assert len(lines) > 2  # a rotted last line reads as torn
            lines[1] = lines[1].replace(":", ";", 1)
            victim.write_text("\n".join(lines) + "\n")
        info = SegmentedWriteAheadLog.inspect(wal_dir)
        with pytest.warns(UserWarning) as caught:
            wal = SegmentedWriteAheadLog(wal_dir, fsync=False)
        wal.close()
        notes = " ".join(str(w.message) for w in caught)
        assert "quarantined corrupt" in notes and "LOST" in notes
        assert wal.unverified == []
        assert wal.events == info.events
        assert wal.anchor_base_seq == info.anchor_base_seq
        assert without_path(wal.quarantined) \
            == without_path(info.quarantined)
        pre, post = wal.quarantined
        assert (pre["segment"], pre["state_loss"]) == (0, False)
        assert post["state_loss"] is True

    @settings(deadline=None, max_examples=40)
    @given(kind=st.sampled_from(["flip", "torn", "header", "remove"]),
           where=st.tuples(st.integers(0, 99), st.integers(0, 99),
                           st.integers(0, 9999), st.integers(0, 6)))
    def test_reopen_agrees_with_the_full_audit(self, kind, where):
        """Under any one damage the reopen recovers what ``inspect``
        plans; the only difference allowed is that segments behind the
        anchor are unverified instead of quarantined."""
        with tempfile.TemporaryDirectory() as root:
            wal_dir = Path(root) / "wal"
            wal_dir.mkdir()
            for name, body in demo_files():
                (wal_dir / name).write_bytes(body)
            damage(wal_dir, kind, *where)
            indices = [index_of(p)
                       for p in sorted(wal_dir.glob("segment-*.jsonl"))]
            try:
                info = SegmentedWriteAheadLog.inspect(wal_dir)
            except ReproError as exc:
                with pytest.raises(type(exc)), warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    SegmentedWriteAheadLog(wal_dir, fsync=False)
                return
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                wal = SegmentedWriteAheadLog(wal_dir, fsync=False)
            wal.close()
            assert wal.events == info.events
            assert wal.anchor_base_seq == info.anchor_base_seq
            assert wal.torn_tail_dropped == info.torn_tail
            assert fold(wal.recover_state) == fold(info.recover_state)
            assert wal.unverified == indices[:len(wal.unverified)]
            if wal.unverified:   # only a clean chain stops the read early
                assert wal.quarantined == []
            audit = without_path(info.quarantined)
            assert without_path(wal.quarantined) == [
                r for r in audit if r["segment"] not in wal.unverified]
            assert not any(r["state_loss"] for r in audit
                           if r["segment"] in wal.unverified)

    def test_each_file_parsed_at_open_is_one_leaf_span(self, tmp_path):
        wal_dir, _ = segmented_run(tmp_path, segment_bytes=512)
        chain = anchor_chain(wal_dir)
        rec = TraceRecorder()
        with ServeServer(wal_dir, fsync=False, recorder=rec) as server:
            replayed = len(server.wal.events)
        spans = [e.attrs_dict for e in rec.trace("reopen").events
                 if e.name == "wal/parse"]
        assert [int(a["segment"]) for a in spans] == chain[::-1]
        assert sum(int(a["records"]) for a in spans) == replayed

    def test_flat_reopen_is_one_span_and_append_none(self, tmp_path):
        rec = TraceRecorder()
        with WriteAheadLog(tmp_path / "w.jsonl", fsync=False,
                           recorder=rec) as wal:
            fill(wal, 3)
        assert rec.trace("append").events == ()
        WriteAheadLog(tmp_path / "w.jsonl", fsync=False,
                      recorder=rec).close()
        (span,) = rec.trace("reopen").events
        assert (span.name, span.attrs_dict) \
            == ("wal/parse", {"segment": "0", "records": "3"})


# -- segment identity is the filename, not the listing position -------------

class TestSegmentIndexIntegrity:
    def test_rotation_after_quarantine_preserves_acked_history(
            self, tmp_path):
        # quarantining segment 0 leaves a directory whose listing
        # positions no longer match filename numbers; every subsequent
        # rotation must still open a *fresh* file, never truncate a
        # live one
        wal_dir, snap = segmented_run(tmp_path)
        victim = sorted(wal_dir.glob("segment-*.jsonl"))[0]
        # the rename a quarantining (full-parse) recovery performs
        victim.rename(victim.with_name(victim.name + ".quarantined"))
        # the recovery sees the renamed-away segment: the live files'
        # directory positions no longer equal their numbers
        revived = SegmentedWriteAheadLog(wal_dir, fsync=False,
                                         segment_bytes=256)
        tail = sorted(wal_dir.glob("segment-*.jsonl"))[-1]
        assert revived._active_index == int(tail.stem.split("-")[1])
        assert revived.recover_state().snapshot() == snap
        before = [e.seq for e in revived.all_events()]
        start = revived.next_seq
        fill(revived, 40, start=start)  # forces several rotations
        revived.close()
        clean = SegmentedWriteAheadLog(wal_dir, fsync=False)
        after = [e.seq for e in clean.all_events()]
        assert after == before + list(range(start, start + 40))
        clean.close()

    def test_rotate_refuses_existing_segment_file(self, tmp_path):
        wal = SegmentedWriteAheadLog(tmp_path / "wal", fsync=False,
                                     segment_bytes=128)
        fill(wal, 6)
        assert wal.segment_count >= 2
        sealed = sorted((tmp_path / "wal").glob("segment-*.jsonl"))[0]
        body = sealed.read_bytes()
        wal._active_index = -1  # simulate index bookkeeping gone wrong
        with pytest.raises(LogIntegrityError, match="refusing to rotate"):
            fill(wal, 50, start=6)
        assert sealed.read_bytes() == body  # nothing was truncated
        wal.close()

    def test_header_filename_mismatch_is_corruption(self, tmp_path):
        wal = SegmentedWriteAheadLog(tmp_path / "wal", fsync=False,
                                     segment_bytes=128)
        fill(wal, 6)
        wal.close()
        segments = sorted((tmp_path / "wal").glob("segment-*.jsonl"))
        assert len(segments) >= 2
        # a renamed segment file lies about its identity: recovery must
        # flag it instead of trusting either number blindly
        lying = int(segments[-1].stem.split("-")[1]) + 5
        segments[-1].rename(
            segments[-1].with_name(f"segment-{lying:08d}.jsonl"))
        with pytest.warns(UserWarning, match="filename says"):
            revived = SegmentedWriteAheadLog(tmp_path / "wal",
                                             fsync=False)
        assert revived.quarantined
        revived.close()


# -- a crash during rotation is not data loss --------------------------------

class TestTornRotationHeader:
    def test_torn_header_tail_is_unacked_not_state_loss(self, tmp_path):
        wal = SegmentedWriteAheadLog(tmp_path / "wal", fsync=False,
                                     segment_bytes=1 << 20)
        fill(wal, 3)
        wal.close()
        # crash mid-rotation: the next segment exists but its header
        # line never became complete
        torn = tmp_path / "wal" / "segment-00000001.jsonl"
        torn.write_text('{"base_seq":3,"forma')
        with pytest.warns(UserWarning, match="crash mid-rotation"):
            revived = SegmentedWriteAheadLog(tmp_path / "wal",
                                             fsync=False)
        assert revived.quarantined == []  # no false data-loss report
        assert revived.torn_tail_dropped is not None
        assert revived.last_seq == 2      # every acked event survives
        assert not torn.exists()
        fill(revived, 2, start=3)         # appendable; name is reusable
        revived.close()

    def test_empty_rotation_file_dropped(self, tmp_path):
        wal = SegmentedWriteAheadLog(tmp_path / "wal", fsync=False,
                                     segment_bytes=1 << 20)
        fill(wal, 3)
        wal.close()
        (tmp_path / "wal" / "segment-00000001.jsonl").write_text("")
        with pytest.warns(UserWarning, match="torn/empty"):
            revived = SegmentedWriteAheadLog(tmp_path / "wal",
                                             fsync=False)
        assert revived.quarantined == []
        assert revived.last_seq == 2
        revived.close()


# -- a missing segment file is named, not an opaque apply error --------------

class TestChainGap:
    def test_missing_segment_reports_gap(self, tmp_path):
        wal = SegmentedWriteAheadLog(tmp_path / "wal", fsync=False,
                                     segment_bytes=100)
        fill(wal, 12)
        wal.close()
        segments = sorted((tmp_path / "wal").glob("segment-*.jsonl"))
        assert len(segments) > 3
        segments[len(segments) // 2].unlink()
        with pytest.warns(UserWarning, match="missing"):
            revived = SegmentedWriteAheadLog(tmp_path / "wal",
                                             fsync=False)
        reports = revived.quarantined
        assert reports and all(r["state_loss"] for r in reports)
        assert "sequence gap" in reports[0]["reason"]
        # the surviving prefix folds cleanly — no apply-time gap error
        kept = revived.last_seq
        assert 0 <= kept < 11
        revived.recover_state()
        revived.append(round_event(kept + 1))
        revived.close()


# -- read-only inspection (repro serve --replay) -----------------------------

class TestReadOnlyInspection:
    def test_inspect_mutates_nothing(self, tmp_path):
        wal_dir, snap = segmented_run(tmp_path)
        victim = sorted(wal_dir.glob("segment-*.jsonl"))[0]
        lines = victim.read_text().splitlines()
        lines[-1] = lines[-1].replace(":", ";", 1)
        victim.write_text("\n".join(lines) + "\n")
        before = dir_bytes(wal_dir)
        info = SegmentedWriteAheadLog.inspect(wal_dir)
        after = dir_bytes(wal_dir)
        assert after == before  # no renames, rewrites, or writer opens
        (report,) = info.quarantined
        assert report["state_loss"] is False
        assert Path(report["path"]) == victim  # points at the live file
        assert info.notes  # the would-be warnings are reported
        # same verdict a real (mutating) recovery reaches
        assert info.recover_state().snapshot() == snap

    def test_inspect_matches_recovery_on_clean_log(self, tmp_path):
        wal_dir, snap = segmented_run(tmp_path)
        info = SegmentedWriteAheadLog.inspect(wal_dir)
        assert info.quarantined == [] and info.torn_tail is None
        assert info.recover_state().snapshot() == snap
        assert info.last_seq == info.events[-1].seq

    def test_inspect_refuses_non_directory(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not a segment"):
            SegmentedWriteAheadLog.inspect(tmp_path / "nope")


# -- the open_wal dispatcher ------------------------------------------------

class TestOpenWal:
    def test_fresh_path_defaults_to_single_file(self, tmp_path):
        wal = open_wal(tmp_path / "w.jsonl", fsync=False)
        assert isinstance(wal, WriteAheadLog)
        wal.close()

    def test_segment_bytes_selects_segmented(self, tmp_path):
        wal = open_wal(tmp_path / "w", fsync=False, segment_bytes=4096)
        assert isinstance(wal, SegmentedWriteAheadLog)
        assert wal.segment_bytes == 4096
        wal.close()

    def test_existing_directory_resumes_segmented(self, tmp_path):
        open_wal(tmp_path / "w", fsync=False, segment_bytes=256).close()
        wal = open_wal(tmp_path / "w", fsync=False)
        assert isinstance(wal, SegmentedWriteAheadLog)
        assert wal.segment_bytes == DEFAULT_SEGMENT_BYTES
        wal.close()

    def test_existing_file_wins_over_segment_bytes(self, tmp_path):
        open_wal(tmp_path / "w.jsonl", fsync=False).close()
        wal = open_wal(tmp_path / "w.jsonl", fsync=False,
                       segment_bytes=4096)
        assert isinstance(wal, WriteAheadLog)
        wal.close()

    def test_file_path_refused_as_segment_dir(self, tmp_path):
        (tmp_path / "w").write_text("not a directory\n")
        with pytest.raises(ConfigurationError, match="file, not a"):
            SegmentedWriteAheadLog(tmp_path / "w", fsync=False)
