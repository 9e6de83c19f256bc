"""The one codec for "JSON header line + one JSON line per record" files.

Five formats in this repo have that shape —
:class:`repro.chaos.FailureTrace`, :class:`repro.obs.TelemetryTrace`,
:class:`repro.parallel.ScheduleProgram`, and the flat and segmented
:mod:`repro.serve` write-ahead logs — and with it the failure mode of
append-only files (a process killed mid-write leaves a *torn* final
line) and the contract that the file is plain versioned JSON an outside
tool can read.  Each format owns only its record-specific half: which
header fields, how one decoded record becomes a value.  The rest is
here:

* :func:`canonical_json` — the byte-stable serialization (sorted keys,
  no whitespace, repr-round-tripping floats); :func:`dump_log` — the
  writer: header line, record lines, trailing newline;
* :func:`decode_json` — the one place a log line is decoded: the C
  scanner, bound once, with exactly :func:`json.loads`'s acceptance and
  errors, and none of its per-call dispatch;
* :class:`LogFormat` — the reader: split lines, split off the torn
  final line, decode every line once, parse and type-check the header,
  reject a missing or newer ``version``, hand each record parser the
  raw line and its decoded object as ``record(line, obj)``, and map any
  malformed record to :class:`~repro.errors.ConfigurationError` naming
  file, format and 1-based line.  ``parse`` returns the valid prefix
  plus the first error (what a recovery planner needs); ``read`` raises
  it;
* :class:`JsonlDocument` — ``from_jsonl`` / ``save`` / ``load`` for the
  three whole-document formats, on top of the two above;
* :func:`crc32_text` — the per-record checksum of the serve WAL, which
  detects mid-file bit rot, not just torn tails;
* :class:`JsonlWriter` — append-only line writer with flush-per-line and
  optional ``fsync``, under :class:`repro.obs.JsonlSink` and both WALs.
"""

from __future__ import annotations

import json
import os
import warnings
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.errors import ConfigurationError, ReproError

__all__ = ["canonical_json", "crc32_text", "decode_json", "dump_log",
           "check_version", "torn_tail_message", "LogFile", "LogFormat",
           "JsonlDocument", "JsonlWriter"]


def canonical_json(payload: object) -> str:
    """Serialize to the repo's byte-stable JSON form.

    Sorted keys, no whitespace, floats via Python's repr-based
    formatting (which round-trips exactly), so serializing the parse of
    a canonical line reproduces it byte-for-byte.

    >>> canonical_json({"b": 1.5, "a": [1, 2]})
    '{"a":[1,2],"b":1.5}'
    >>> canonical_json(json.loads(canonical_json({"x": 0.1}))) == \
            canonical_json({"x": 0.1})
    True
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def crc32_text(text: str) -> int:
    """CRC-32 of a text's UTF-8 bytes (the WAL record checksum).

    Platform-independent (:func:`zlib.crc32` is the IEEE polynomial
    everywhere), cheap enough to stamp on every log line, and strong
    enough to catch single-bit rot anywhere in a record — the failure
    mode torn-tail salvage alone cannot see.

    >>> crc32_text('{"a":1}')
    1444654255
    >>> crc32_text('{"a":2}') != crc32_text('{"a":1}')
    True
    """
    return zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF


#: the C scanner :func:`json.loads` ends in, bound once
_scan_once = json.JSONDecoder().scan_once
#: JSON's own whitespace (RFC 8259), all ``json.loads`` skips around a value
_JSON_WS = " \t\n\r"


def decode_json(line: str) -> Any:
    """``json.loads(line)`` — the same value, acceptance and errors.

    JSON whitespace around the value is skipped, trailing data and a
    UTF-8 BOM are refused, and every other error is the scanner's own
    :class:`json.JSONDecodeError`.  Left out: ``json.loads``'s per-call
    dispatch and its two whitespace regex matches.

    >>> decode_json(' {"a": [1, 2]}\t')
    {'a': [1, 2]}
    >>> decode_json('{"a":1} {"b":2}')
    Traceback (most recent call last):
        ...
    json.decoder.JSONDecodeError: Extra data: line 1 column 9 (char 8)
    """
    start = 0
    if line[:1] in _JSON_WS:
        start = len(line) - len(line.lstrip(_JSON_WS))
    elif line[0] == "\ufeff":
        raise json.JSONDecodeError(
            "Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
    try:
        obj, end = _scan_once(line, start)
    except StopIteration as err:
        raise json.JSONDecodeError("Expecting value", line,
                                   err.value) from None
    if end != len(line):
        extra = line[end:].lstrip(_JSON_WS)
        if extra:
            raise json.JSONDecodeError("Extra data", line,
                                       len(line) - len(extra))
    return obj


def dump_log(header: dict, records: Iterable[str]) -> str:
    """The writer: canonical header line, the (already serialized)
    record lines, one trailing newline.

    >>> dump_log({"version": 1}, ['{"a":1}'])
    '{"version":1}\\n{"a":1}\\n'
    """
    return "\n".join([canonical_json(header), *records]) + "\n"


def check_version(what: str, version: int, supported: int) -> None:
    """Reject a document written under a newer schema than this reader."""
    if version > supported:
        raise ConfigurationError(
            f"{what} version {version} is newer than supported "
            f"version {supported}"
        )


def torn_tail_message(source: object, torn: str, noun: str = "line") -> str:
    """The warning every reader issues when it drops a torn final line."""
    return (f"{source}: dropped torn final {noun} "
            f"({len(torn)} bytes, crash mid-write?)")


@dataclass
class LogFile:
    """What :meth:`LogFormat.parse` found: the valid prefix + first error.

    ``records`` and ``lines`` stop at the first malformed line and
    ``error`` says why (``None`` for a clean file).  ``header`` is what
    the format's header parser returned (``None``: header unreadable).
    """

    source: str
    header: Any = None
    records: list = field(default_factory=list)
    #: the valid prefix exactly as written, header line first
    lines: list[str] = field(default_factory=list)
    #: complete lines in the file, valid or not (0 = not even the header
    #: made it to disk whole)
    complete_lines: int = 0
    torn: str | None = None
    error: ReproError | None = None


@dataclass(frozen=True)
class LogFormat:
    """The reader for one header+records format.

    ``header`` turns the decoded header object into whatever the format
    keeps of it; ``record(line, obj)`` turns one record line — the raw
    line and its decoded object, decoded here and nowhere else — into a
    record.  Whatever they raise on a malformed line — bad JSON or a
    wrong value (``ValueError``), a missing key, a non-object line or a
    wrong type — becomes a :class:`~repro.errors.ConfigurationError`
    naming the source, the format and the 1-based line; a
    :class:`~repro.errors.ReproError` of their own keeps its type and
    gains the same location prefix.

    >>> fmt = LogFormat("demo log", 1, header=lambda h: h["name"],
    ...                 record=lambda line, obj: obj["n"])
    >>> fmt.read('{"version":1,"name":"x"}\\n{"n":1}\\n').records
    [1]
    >>> fmt.parse('{"version":1,"name":"x"}\\n{"m":1}\\n').error
    ConfigurationError("<text>: demo log line 2: malformed (KeyError: 'n')")
    """

    what: str
    version: int
    header: Callable[[dict], Any]
    record: Callable[[str, Any], Any]

    def parse(self, text: str, source: object = "<text>") -> LogFile:
        """Parse as far as the file is valid; never raises on bad data.

        A process killed mid-append (``kill -9``, power loss) leaves a
        final line that may be cut short; by the write-ahead discipline
        it was never acknowledged.  A final line that does not decode is
        that *torn* tail, split off into ``torn`` (a complete final line
        is kept, newline or not).  A malformed line before the end is
        corruption: it ends the valid prefix and is the ``error``.

        Every line is decoded once: the final line's decode, which
        decides whether it is torn, is the one its record is built from.
        """
        good = [ln for ln in text.splitlines() if ln and not ln.isspace()]
        torn = last = None
        if good:
            try:
                last = decode_json(good[-1])
            except json.JSONDecodeError:
                torn = good.pop()
        log = LogFile(source=str(source), complete_lines=len(good),
                      torn=torn)
        if not good:
            log.error = ConfigurationError(
                f"{source}: {self.what} is empty (no header line)")
        final = len(good) - 1 if torn is None else -1
        for i, line in enumerate(good):
            try:
                obj = last if i == final else decode_json(line)
                if i:
                    log.records.append(self.record(line, obj))
                else:
                    log.header = self._header(obj)
            except (ReproError, ValueError, KeyError, TypeError,
                    AttributeError) as exc:
                lineno = [n for n, ln in enumerate(text.splitlines(), 1)
                          if ln.strip()][i]
                where = f"{source}: {self.what} line {lineno}"
                if isinstance(exc, ReproError):
                    exc.args = (f"{where}: {exc}",)
                    log.error = exc
                else:
                    log.error = ConfigurationError(
                        f"{where}: malformed "
                        f"({type(exc).__name__}: {exc})")
                    log.error.__cause__ = exc
                break
            log.lines.append(line)
        return log

    def _header(self, raw: Any) -> Any:
        if not isinstance(raw, dict) or "version" not in raw:
            raise ConfigurationError("header missing 'version'")
        check_version(self.what, int(raw["version"]), self.version)
        return self.header(raw)

    def read(self, text: str, source: object = "<text>", *,
             salvage: bool = False) -> LogFile:
        """Parse strictly: raise the first error instead of returning it.

        A torn final line is dropped with a :class:`UserWarning` when
        ``salvage`` is set (a file on disk, crash mid-write) and is an
        error otherwise.
        """
        log = self.parse(text, source)
        if log.torn is not None:
            if salvage:
                warnings.warn(torn_tail_message(source, log.torn),
                              UserWarning, stacklevel=3)
            elif log.error is None:
                log.error = ConfigurationError(
                    f"{source}: {self.what} is not valid JSONL: final "
                    f"line is torn ({len(log.torn)} bytes)")
        if log.error is not None:
            raise log.error
        return log


class JsonlDocument:
    """``from_jsonl`` / ``save`` / ``load`` for a header+records class.

    The class supplies its record-specific half: ``to_jsonl()`` and a
    :class:`LogFormat` as ``_format`` whose header parser returns
    constructor keywords (the records go to ``events`` unless the class
    overrides ``_of``).
    """

    @classmethod
    def _of(cls, log: LogFile):
        return cls(events=tuple(log.records), **log.header)

    @classmethod
    def from_jsonl(cls, text: str):
        """Parse a document; any malformed line — a torn final one
        included — raises :class:`~repro.errors.ConfigurationError`."""
        return cls._of(cls._format.read(text))

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_jsonl())
        return path

    @classmethod
    def load(cls, path: str | Path):
        """Load a file, tolerating a torn final line: a process killed
        mid-write leaves the last line truncated, and the valid prefix
        is recovered with a :class:`UserWarning`.  Corruption *before*
        the final line raises like :meth:`from_jsonl`."""
        return cls._of(
            cls._format.read(Path(path).read_text(), path, salvage=True))


class JsonlWriter:
    """Append-only JSONL file with flush-per-line and optional fsync.

    Every ``write_line`` flushes to the OS so a concurrent reader (or a
    ``tail -f``) sees complete lines only; with ``fsync=True`` each line
    is additionally forced to stable storage before the call returns —
    the durability a write-ahead log needs before acknowledging.
    ``close()`` always flushes (and fsyncs, when enabled) first, so no
    buffered line is ever lost to an orderly shutdown.

    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "log.jsonl")
    >>> with JsonlWriter(path) as w:
    ...     w.write_line('{"event":"demo"}')
    >>> open(path).read()
    '{"event":"demo"}\\n'
    """

    def __init__(self, path: str | Path, *, fsync: bool = False,
                 append: bool = False):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.fsync = bool(fsync)
        self._fh = self.path.open("a" if append else "w")

    @property
    def closed(self) -> bool:
        return self._fh.closed

    def write_line(self, line: str) -> None:
        """Append one complete line durably (see class docstring)."""
        if self._fh.closed:
            raise ValueError(f"JsonlWriter {self.path} already closed")
        self._fh.write(line + "\n")
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Flush (and fsync, when enabled) then close; idempotent."""
        if self._fh.closed:
            return
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        self._fh.close()

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
