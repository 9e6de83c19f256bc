"""Torn-write tolerance across every versioned JSONL reader.

A process killed mid-write (the ``kill -9`` signature) leaves a final
line cut at an arbitrary byte.  Every JSONL format in the repo —
:class:`repro.chaos.FailureTrace`, :class:`repro.obs.TelemetryTrace`,
and the serve :class:`~repro.serve.WriteAheadLog` — must load such a
file with a warning and the complete prefix, never a traceback.  The
tests chop the checked-in golden files at byte granularity to prove it.
A line that is whole but *malformed* is the other half of the contract:
every format reports it as a ``ConfigurationError`` naming file and line.
"""

import functools
import json
import warnings
from pathlib import Path

import pytest

from repro.chaos import FailureTrace
from repro.errors import ConfigurationError
from repro.jobs import JobSpec
from repro.obs import TelemetryTrace
from repro.parallel import ScheduleProgram
from repro.serve import (
    SegmentedWriteAheadLog,
    ServeConfig,
    ServeServer,
    ServeState,
    TenantSpec,
    WriteAheadLog,
)
from repro.utils.jsonl import LogFormat

TRACES = Path(__file__).parent / "traces"

FAILURE_GOLDEN = TRACES / "steady_mtbf_dp_seed0.jsonl"
TELEMETRY_GOLDEN = TRACES / "telemetry_golden.jsonl"
WAL_GOLDEN = TRACES / "serve_wal_golden.jsonl"
PROGRAM_GOLDEN = TRACES / "program_1f1b_p2_m4.jsonl"


def chop_points(text: str) -> list[int]:
    """Byte offsets cutting into the final line at several depths."""
    last_nl = text.rstrip("\n").rfind("\n")
    last_len = len(text) - last_nl - 1
    return sorted({
        last_nl + 1 + max(1, (last_len * num) // 4) for num in (1, 2, 3)
    })


def salvage_jsonl(text: str) -> tuple[list[str], str | None]:
    """The record lines a reader keeps of ``text`` and its torn tail."""
    log = LogFormat("demo", 1, header=dict,
                    record=lambda line, obj: obj).parse(
        '{"version":1}\n' + text)
    return log.lines[1:], log.torn


class TestSalvage:
    def test_complete_text_has_no_torn_tail(self):
        good, torn = salvage_jsonl('{"a":1}\n{"b":2}\n')
        assert good == ['{"a":1}', '{"b":2}']
        assert torn is None

    def test_torn_tail_is_split_off(self):
        good, torn = salvage_jsonl('{"a":1}\n{"b":')
        assert good == ['{"a":1}']
        assert torn == '{"b":'

    def test_complete_record_missing_only_newline_is_kept(self):
        # a final line that parses is a complete record, newline or not
        good, torn = salvage_jsonl('{"a":1}\n{"b":2}')
        assert good == ['{"a":1}', '{"b":2}']
        assert torn is None


class TestFailureTraceTorn:
    @pytest.mark.parametrize("cut", chop_points(FAILURE_GOLDEN.read_text()))
    def test_chopped_golden_loads_with_warning(self, tmp_path, cut):
        whole = FAILURE_GOLDEN.read_text()
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(whole.encode()[:cut])
        with pytest.warns(UserWarning, match="torn final line"):
            trace = FailureTrace.load(torn)
        full = FailureTrace.load(FAILURE_GOLDEN)
        assert trace.scenario == full.scenario
        assert len(trace.events) == len(full.events) - 1
        assert trace.events == full.events[:-1]


class TestTelemetryTraceTorn:
    @pytest.mark.parametrize(
        "cut", chop_points(TELEMETRY_GOLDEN.read_text())
    )
    def test_chopped_golden_loads_with_warning(self, tmp_path, cut):
        whole = TELEMETRY_GOLDEN.read_text()
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(whole.encode()[:cut])
        with pytest.warns(UserWarning, match="torn final line"):
            trace = TelemetryTrace.load(torn)
        full = TelemetryTrace.load(TELEMETRY_GOLDEN)
        assert len(trace.events) == len(full.events) - 1
        assert trace.events == full.events[:-1]


class TestWalTorn:
    @pytest.mark.parametrize("cut", chop_points(WAL_GOLDEN.read_text()))
    def test_chopped_golden_loads_with_warning(self, tmp_path, cut):
        whole = WAL_GOLDEN.read_text()
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(whole.encode()[:cut])
        with pytest.warns(UserWarning, match="torn final WAL line"):
            events = WriteAheadLog.load_events(torn)
        full = WriteAheadLog.load_events(WAL_GOLDEN)
        assert events == full[:-1]
        # the salvaged prefix still replays into a consistent state
        state = ServeState.replay(events)
        assert state.last_seq == len(events) - 1

    def test_every_single_byte_cut_of_final_event(self, tmp_path):
        """Exhaustive: no byte offset inside the last line can crash —
        and the flat file and a never-rotating segment directory, fed
        the same events and cut at the same byte, recover alike."""
        whole = WAL_GOLDEN.read_text().encode()
        last_nl = whole.rstrip(b"\n").rfind(b"\n")
        full = WriteAheadLog.load_events(WAL_GOLDEN)
        flat, seg_dir = tmp_path / "flat.jsonl", tmp_path / "segs"
        with SegmentedWriteAheadLog(seg_dir, fsync=False,
                                    segment_bytes=1 << 30) as wal:
            for event in full:
                wal.append(event)
        seg = seg_dir / "segment-00000000.jsonl"
        seg_whole = seg.read_bytes()
        tail = len(whole) - (last_nl + 1)   # last record + its newline
        assert seg_whole[-tail:] == whole[-tail:]
        # every strict mid-line cut tears; the final cut (only the
        # newline missing) still holds a complete, parseable record
        for keep in range(1, tail - 1):
            torn = tmp_path / "torn.jsonl"
            torn.write_bytes(whole[:last_nl + 1 + keep])
            with pytest.warns(UserWarning):
                events = WriteAheadLog.load_events(torn)
            assert events == full[:-1]
            # the same cut through both writers: same recovery, and a
            # reopen + append continues gaplessly on both
            flat.write_bytes(whole[:last_nl + 1 + keep])
            seg.write_bytes(seg_whole[:len(seg_whole) - tail + keep])
            with pytest.warns(UserWarning):
                a = WriteAheadLog(flat, fsync=False)
            with pytest.warns(UserWarning):
                b = SegmentedWriteAheadLog(seg_dir, fsync=False)
            assert a.events == b.events == full[:-1]
            assert a.torn_tail_dropped == b.torn_tail_dropped \
                == whole[last_nl + 1:last_nl + 1 + keep].decode()
            for reopened in (a, b):
                reopened.append(full[-1])
                reopened.close()
            assert WriteAheadLog.load_events(flat) == full
            assert b.all_events() == full
            assert seg.read_bytes() == seg_whole
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(whole[: len(whole) - 1])
        assert WriteAheadLog.load_events(torn) == full

    def test_reopen_truncates_torn_bytes_from_disk(self, tmp_path):
        whole = WAL_GOLDEN.read_text()
        torn = tmp_path / "torn.jsonl"
        torn.write_text(whole + '{"seq":70,"k":"rou')
        with pytest.warns(UserWarning, match="torn final WAL line"):
            wal = WriteAheadLog(torn, fsync=False)
        wal.close()
        assert torn.read_text() == whole  # disk is clean again
        WriteAheadLog.load_events(torn)   # and loads silently


class TestUnterminatedTail:
    """A crash that cuts only the final newline leaves a complete record
    the reopen keeps.  It must also end that line before the next append,
    which would otherwise land on the same line: the reopen after that
    reads the merged line as torn or corrupt and loses both events."""

    def test_flat_wal_keeps_both_events_across_two_reopens(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        full = WriteAheadLog.load_events(WAL_GOLDEN)
        with WriteAheadLog(path, fsync=False) as wal:
            for event in full[:2]:
                wal.append(event)
        path.write_bytes(path.read_bytes()[:-1])
        with warnings.catch_warnings(record=True) as first:
            warnings.simplefilter("always")
            wal = WriteAheadLog(path, fsync=False)
        assert wal.events == full[:2]
        wal.append(full[2])
        wal.close()
        with warnings.catch_warnings(record=True) as second:
            warnings.simplefilter("always")
            reopened = WriteAheadLog(path, fsync=False)
        reopened.close()
        assert reopened.events == full[:3]
        assert path.read_text().endswith("\n")
        assert [str(w.message) for w in second] == []
        (warned,) = first
        assert "lacks its newline" in str(warned.message)

    def test_inspect_reports_it_without_writing(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_text(WAL_GOLDEN.read_text().rstrip("\n"))
        before = path.read_bytes()
        info = SegmentedWriteAheadLog.inspect(path)
        assert any("lacks its newline" in note for note in info.notes)
        assert info.events == WriteAheadLog.load_events(WAL_GOLDEN)
        assert path.read_bytes() == before

    def test_segmented_wal_keeps_acked_submits(self, tmp_path):
        wal_dir = tmp_path / "wal"
        config = ServeConfig(num_machines=4, devices_per_machine=2)
        spec = functools.partial(JobSpec, parallelism="dp", num_workers=2,
                                 iterations=2)
        with ServeServer(wal_dir, config, fsync=False,
                         segment_bytes=4096) as server:
            server.register_tenant(TenantSpec(name="t"))
            for i in range(3):
                assert server.submit("t", spec(name=f"j{i}"))[0] \
                    == "accepted"
        tail = sorted(wal_dir.glob("segment-*.jsonl"))[-1]
        tail.write_bytes(tail.read_bytes()[:-1])
        with warnings.catch_warnings(record=True) as first:
            warnings.simplefilter("always")
            revived = ServeServer(wal_dir, config, fsync=False,
                                  segment_bytes=4096)
        assert revived.state.acked_jobs() == ["j0", "j1", "j2"]
        assert revived.submit("t", spec(name="j3"))[0] == "accepted"
        revived.close()
        with warnings.catch_warnings(record=True) as second:
            warnings.simplefilter("always")
            again = ServeServer(wal_dir, config, fsync=False,
                                segment_bytes=4096)
        again.close()
        assert again.state.acked_jobs() == ["j0", "j1", "j2", "j3"]
        assert [str(w.message) for w in second] == []
        (warned,) = first
        assert "lacks its newline" in str(warned.message)


#: per format: golden file, loader, a key every record needs, a key that
#: must be an integer
FORMATS = {
    "failure_trace": (FAILURE_GOLDEN, FailureTrace.load, "t", "machine"),
    "telemetry": (TELEMETRY_GOLDEN, TelemetryTrace.load, "k", "seq"),
    "program": (PROGRAM_GOLDEN, ScheduleProgram.load, "op", "stage"),
    "wal": (WAL_GOLDEN, WriteAheadLog.load_events, "k", "seq"),
}


class TestMalformedRecord:
    """A whole line that is not a record is a typed error, never a bare
    KeyError/ValueError/TypeError, and says where it is."""

    @pytest.mark.parametrize("damage", ["missing_key", "wrong_type",
                                        "non_object", "not_json"])
    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    def test_names_file_and_line(self, tmp_path, fmt, damage):
        golden, load, required, integer = FORMATS[fmt]
        lines = golden.read_text().splitlines()
        record = json.loads(lines[2])
        if damage == "missing_key":
            del record[required]
        elif damage == "wrong_type":
            record[integer] = "three"
        lines[2] = {"non_object": "[1, 2]", "not_json": '{"a":'}.get(
            damage, json.dumps(record))
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError) as err:
            load(bad)
        assert str(bad) in str(err.value)
        assert "line 3" in str(err.value)
