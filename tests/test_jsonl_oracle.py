"""Every log reader equals its per-line ``json.loads`` oracle.

``LogFormat.parse`` decodes each line once (``decode_json``) and hands
the record parsers ``record(line, obj)``; the torn-tail decision reuses
the final line's decode.  ``tests/jsonl_oracle.py`` keeps the readers
as they were, decoding each line in every step that looks at it.  On
the four checked-in goldens — a serve WAL, a failure trace, a telemetry
trace and an instruction program — and on damaged copies of them, both
must return the same records, lines, torn tail and first error (type
and message).
"""

import json
import zlib
from pathlib import Path

import jsonl_oracle as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosEvent, FailureTrace
from repro.obs import TelemetryEvent, TelemetryTrace
from repro.parallel import Instruction, ScheduleProgram
from repro.serve.wal import ServeEvent, read_wal_file
from repro.utils.jsonl import canonical_json, decode_json

TRACES = Path(__file__).parent / "traces"

#: per format: golden file, the reader, the oracle's record parser
READERS = {
    "failure_trace": (TRACES / "steady_mtbf_dp_seed0.jsonl",
                      FailureTrace._format, oracle.chaos_event),
    "telemetry": (TRACES / "telemetry_golden.jsonl",
                  TelemetryTrace._format, oracle.telemetry_event),
    "program": (TRACES / "program_1f1b_p2_m4.jsonl",
                ScheduleProgram._format, oracle.instruction),
    "wal": (TRACES / "serve_wal_golden.jsonl", None, oracle.serve_event),
}
GOLDEN = {name: spec[0].read_text().splitlines()
          for name, spec in READERS.items()}
#: the public single-line parser of each format
FROM_JSON = {"failure_trace": ChaosEvent.from_json,
             "telemetry": TelemetryEvent.from_json,
             "program": Instruction.from_json,
             "wal": ServeEvent.from_json}


@pytest.fixture(scope="module")
def log_path(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("oracle") / "log.jsonl"


def outcome(fn, *args):
    """What a call returned, or the type and message of what it raised."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc).__name__, str(exc)


def assert_same(fmt: str, text: str, path: Path) -> None:
    """The reader and the oracle agree on ``text``."""
    _, reader, record = READERS[fmt]
    if fmt == "wal":
        path.write_text(text)
        new, old = read_wal_file(path), oracle.read_wal_file(path)
        assert (new.base_seq, new.snapshot) == (old.base_seq, old.snapshot)
    else:
        new, old = reader.parse(text), oracle.parse(reader, record, text)
    assert new.records == old.records
    assert new.lines == old.lines
    assert new.torn == old.torn
    assert new.complete_lines == old.complete_lines
    assert new.header == old.header
    assert type(new.error) is type(old.error)
    assert str(new.error) == str(old.error)


def with_line(fmt: str, at: int, line: str) -> str:
    """The golden with line ``at`` replaced (``-1``: the final line)."""
    lines = list(GOLDEN[fmt])
    lines[at] = line
    return "\n".join(lines) + "\n"


def flip(line: str, pos: int, bit: int) -> str:
    return line[:pos] + chr(ord(line[pos]) ^ (1 << bit)) + line[pos + 1:]


def wal_line(body: dict, *, crc: bool = True) -> str:
    """A WAL line for any body, a valid checksum included."""
    text = canonical_json(body)
    return f'{{"c":{zlib.crc32(text.encode())},{text[1:]}' if crc else text


@pytest.mark.parametrize("fmt", sorted(READERS))
def test_clean_goldens_agree(fmt, log_path):
    assert_same(fmt, "\n".join(GOLDEN[fmt]) + "\n", log_path)


def test_decode_json_equals_json_loads_on_every_bit_flip():
    """The scanner's acceptance and errors, exhaustively: every one-bit
    flip (of the low byte) of every line of the four goldens."""
    for lines in GOLDEN.values():
        for line in lines:
            for pos in range(len(line)):
                for bit in range(8):
                    damaged = flip(line, pos, bit)
                    assert outcome(decode_json, damaged) \
                        == outcome(json.loads, damaged), damaged


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("fmt", sorted(READERS))
def test_one_bit_flip_of_any_line(fmt, data, log_path):
    lines = GOLDEN[fmt]
    at = data.draw(st.integers(0, len(lines) - 1), label="line")
    pos = data.draw(st.integers(0, len(lines[at]) - 1), label="char")
    bit = data.draw(st.integers(0, 7), label="bit")
    assert_same(fmt, with_line(fmt, at, flip(lines[at], pos, bit)),
                log_path)


@pytest.mark.parametrize("fmt", sorted(READERS))
def test_every_truncation_of_the_final_line(fmt, log_path):
    final = GOLDEN[fmt][-1]
    for keep in range(len(final) + 1):
        text = "\n".join(GOLDEN[fmt][:-1]) + "\n" + final[:keep]
        assert_same(fmt, text, log_path)


PADS = [" ", "\t", "\r", "  \t ", "\x0b"]


@pytest.mark.parametrize("pad", PADS, ids=repr)
@pytest.mark.parametrize("fmt", sorted(READERS))
def test_padded_lines(fmt, pad, log_path):
    record = GOLDEN[fmt][2]
    variants = [record]
    if fmt == "wal":  # its v1 form: the canonical body, no checksum
        body = json.loads(record)
        del body["c"]
        variants.append(canonical_json(body))
    for line in variants:
        for padded in (pad + line, line + pad, pad + line + pad):
            # the single-line parser sees the padding; a file splits
            # some of it ("\r", "\x0b") into line breaks
            assert outcome(FROM_JSON[fmt], padded) \
                == outcome(READERS[fmt][2], padded), padded
            for at in (2, -1):
                assert_same(fmt, with_line(fmt, at, padded), log_path)


#: whole lines that are not a record of the format, per format
WRONG = {
    "non_object": ["[1, 2]", '"text"', "3", "null"],
    "two_objects": ['{"a":1}{"b":2}', '{"a":1} {"b":2}', "[1] 2"],
}


@pytest.mark.parametrize("damage", sorted(WRONG))
@pytest.mark.parametrize("fmt", sorted(READERS))
def test_wrong_lines(fmt, damage, log_path):
    for line in WRONG[damage] + [GOLDEN[fmt][2] + GOLDEN[fmt][3]]:
        for at in (0, 2, -1):
            assert_same(fmt, with_line(fmt, at, line), log_path)


@pytest.mark.parametrize("crc", [True, False], ids=["v2", "v1"])
def test_wal_unknown_kind_negative_seq_and_gap(crc, log_path):
    body = json.loads(GOLDEN["wal"][2])
    del body["c"]
    for change in ({"k": "bogus"}, {"seq": -1}, {"seq": 7}, {"p": [1]}):
        line = wal_line({**body, **change}, crc=crc)
        for at in (2, -1):
            assert_same("wal", with_line("wal", at, line), log_path)
