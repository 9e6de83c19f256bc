"""The log readers as they were before ``LogFormat`` decoded each line.

``repro.utils.jsonl.LogFormat.parse`` decodes every line of a
header+records log once, with the C scanner, and hands each record
parser the raw line with its decoded object.  The functions here are
the per-line bodies that replaced: a ``json.loads`` in the torn-tail
check, another in the header parser, and one more in each format's
``from_json(line)``.  They are the oracle the one-decode reader must
equal — the same records, lines, torn tail and first error, to the
error's type and message — on clean and on damaged files.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.chaos.trace import ChaosEvent
from repro.cluster.failures import FailurePhase
from repro.errors import ConfigurationError, LogIntegrityError, ReproError
from repro.obs.telemetry import TelemetryEvent
from repro.parallel.instructions import Instruction
from repro.serve.wal import (
    WAL_VERSION,
    ServeEvent,
    _header_fields,
    _WalFile,
)
from repro.utils.jsonl import LogFile, LogFormat, check_version, crc32_text


def salvage(text: str) -> tuple[list[str], str | None]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        return [], None
    try:
        json.loads(lines[-1])
    except json.JSONDecodeError:
        return lines[:-1], lines[-1]
    return lines, None


def parse(fmt: LogFormat, record, text: str,
          source: object = "<text>") -> LogFile:
    """``fmt.parse`` with a one-argument ``record(line)`` that decodes
    the line itself."""
    good, torn = salvage(text)
    log = LogFile(source=str(source), complete_lines=len(good), torn=torn)
    if not good:
        log.error = ConfigurationError(
            f"{source}: {fmt.what} is empty (no header line)")
    for i, line in enumerate(good):
        try:
            if i:
                log.records.append(record(line))
            else:
                raw = json.loads(line)
                if not isinstance(raw, dict) or "version" not in raw:
                    raise ConfigurationError("header missing 'version'")
                check_version(fmt.what, int(raw["version"]), fmt.version)
                log.header = fmt.header(raw)
        except (ReproError, ValueError, KeyError, TypeError,
                AttributeError) as exc:
            lineno = [n for n, ln in enumerate(text.splitlines(), 1)
                      if ln.strip()][i]
            where = f"{source}: {fmt.what} line {lineno}"
            if isinstance(exc, ReproError):
                exc.args = (f"{where}: {exc}",)
                log.error = exc
            else:
                log.error = ConfigurationError(
                    f"{where}: malformed ({type(exc).__name__}: {exc})")
            break
        log.lines.append(line)
    return log


def chaos_event(line: str) -> ChaosEvent:
    d = json.loads(line)
    return ChaosEvent(
        time_hours=float(d["t"]),
        machine_id=int(d["machine"]),
        kind=str(d["kind"]),
        iteration=None if d.get("iteration") is None
        else int(d["iteration"]),
        phase=str(d.get("phase", FailurePhase.ITERATION_START.value)),
        after_updates=int(d.get("after_updates", 0)),
        magnitude=float(d.get("magnitude", 0.0)),
        instruction=None if d.get("instruction") is None
        else str(d["instruction"]),
    )


def telemetry_event(line: str) -> TelemetryEvent:
    d = json.loads(line)
    return TelemetryEvent(
        seq=int(d["seq"]),
        kind=str(d["k"]),
        name=str(d["name"]),
        track=str(d.get("track", "main")),
        wall=float(d.get("w", 0.0)),
        wall_dur=float(d.get("wd", 0.0)),
        sim=None if d.get("s") is None else float(d["s"]),
        sim_dur=None if d.get("sd") is None else float(d["sd"]),
        value=None if d.get("v") is None else float(d["v"]),
        attrs=tuple(sorted((str(k), str(v))
                           for k, v in dict(d.get("attrs", {})).items())),
    )


def instruction(line: str) -> Instruction:
    d = json.loads(line)
    return Instruction(op=str(d["op"]), stage=int(d["stage"]),
                       microbatch=int(d["mb"]), chunk=int(d["chunk"]))


def serve_event(line: str) -> ServeEvent:
    d = json.loads(line)
    event = ServeEvent(seq=int(d["seq"]), kind=str(d["k"]),
                       payload=dict(d.get("p", {})))
    if "c" in d or not line.startswith('{"k":"'):
        head, _, rest = line.partition(",")
        crc = crc32_text("{" + rest)
        if head != f'{{"c":{crc}':
            raise LogIntegrityError(
                f"WAL record seq {event.seq} ({event.kind!r}) fails "
                f"its checksum: stored crc {d.get('c')}, computed "
                f"{crc} — mid-file corruption (bit rot?)"
            )
    return event


def read_wal_file(path: Path, index: int | None = None) -> _WalFile:
    fmt = LogFormat("WAL", WAL_VERSION, record=None,
                    header=lambda h: _header_fields(h, index))
    wal_file = _WalFile(path=path, index=index or 0,
                        **vars(parse(fmt, serve_event, path.read_text(),
                                     path)))
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
