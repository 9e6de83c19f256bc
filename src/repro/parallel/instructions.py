"""Pipeline schedules as *data*: instruction streams plus a static verifier.

The DeepSpeed-style pipeline engine design (SNIPPETS.md Snippet 1): a
schedule is not code baked into the engine but a per-stage sequence of
small instructions — load a micro-batch, run a forward, ship an
activation, receive a gradient, step the optimizer — that a generic
executor interprets.  :class:`ScheduleProgram` is that data structure;
:func:`verify_program` is the correctness-tooling pass that checks any
program *before* execution, so third-party schedules registered through
:func:`repro.parallel.register_schedule` are validated as data rather
than trusted as code.

Programs serialize through the shared :mod:`repro.utils.jsonl` codec
(one header line, one canonical-JSON line per instruction), so golden
instruction streams under ``tests/traces/`` are byte-stable and
schedule changes are reviewable as diffs.

Vocabulary
----------

``LoadMicroBatch / Forward / Backward / SendActivation /
RecvActivation / SendGrad / RecvGrad / OptimizerStep``.  Each
instruction names a physical ``stage``, a ``microbatch``, and a
``chunk`` — the virtual-stage id for interleaved schedules.  With
``virtual_stages == 1`` chunk ``c`` simply *is* stage ``c``; with
``v > 1`` chunk ``c`` lives on physical stage ``c % p`` (Megatron-style
interleaving), activations flow chunk ``c`` → ``c+1`` and gradients
``c`` → ``c-1``, wrapping across the physical ring.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from repro.errors import ConfigurationError
from repro.utils.jsonl import (
    JsonlDocument,
    LogFile,
    LogFormat,
    canonical_json,
    check_version,
    decode_json,
    dump_log,
)

__all__ = [
    "PROGRAM_VERSION",
    "INSTRUCTION_OPS",
    "Instruction",
    "ScheduleProgram",
    "ScheduleVerificationError",
    "ProgramCheck",
    "verify_program",
]

#: bump when the program JSONL schema changes; readers reject newer
PROGRAM_VERSION = 1

#: the full instruction vocabulary, in documentation order
INSTRUCTION_OPS = (
    "LoadMicroBatch",
    "Forward",
    "Backward",
    "SendActivation",
    "RecvActivation",
    "SendGrad",
    "RecvGrad",
    "OptimizerStep",
)

_COMPUTE_OPS = ("Forward", "Backward")


class ScheduleVerificationError(ConfigurationError):
    """An instruction stream failed static verification.

    The message always names the stage and the per-stage instruction
    index of the offending instruction, so a rejected third-party
    schedule is debuggable from the diagnostic alone.

    >>> raise ScheduleVerificationError("stage 0, instruction 3: ...")
    Traceback (most recent call last):
        ...
    repro.parallel.instructions.ScheduleVerificationError: stage 0, ...
    """


@dataclass(frozen=True)
class Instruction:
    """One unit of pipeline work, addressed to one stage.

    ``microbatch`` and ``chunk`` are ``-1`` for ``OptimizerStep`` (it
    applies to the whole stage, not one micro-batch).

    >>> Instruction("Forward", stage=1, microbatch=0, chunk=1)
    Instruction(op='Forward', stage=1, microbatch=0, chunk=1)
    >>> Instruction.from_json(
    ...     Instruction("OptimizerStep", stage=2).to_json()).stage
    2
    """

    op: str
    stage: int
    microbatch: int = -1
    chunk: int = -1

    def to_json(self) -> str:
        """Canonical single-line JSON (sorted keys, no whitespace)."""
        return canonical_json(
            {"chunk": self.chunk, "mb": self.microbatch, "op": self.op,
             "stage": self.stage}
        )

    @classmethod
    def from_json(cls, line: str) -> "Instruction":
        return cls.from_decoded(line, decode_json(line))

    @classmethod
    def from_decoded(cls, line: str, d: dict) -> "Instruction":
        """The instruction a decoded line holds (the ``LogFormat``
        record)."""
        return cls(op=str(d["op"]), stage=int(d["stage"]),
                   microbatch=int(d["mb"]), chunk=int(d["chunk"]))


def _header_fields(header: dict) -> dict:
    """The :class:`ScheduleProgram` fields a header line carries."""
    return dict(
        name=str(header["name"]),
        num_stages=int(header["num_stages"]),
        num_microbatches=int(header["num_microbatches"]),
        num_chunks=int(header["num_chunks"]),
        version=int(header["version"]),
    )


@dataclass(frozen=True)
class ScheduleProgram(JsonlDocument):
    """A complete pipeline schedule: one instruction stream per stage.

    ``num_chunks == num_stages * virtual_stages``; chunk ``c`` is placed
    on physical stage ``c % num_stages``.  Programs are immutable and
    hashable, and round-trip byte-stably through :meth:`to_jsonl` /
    :meth:`from_jsonl` (the :class:`repro.chaos.FailureTrace` mold).

    >>> from repro.parallel.programs import build_program
    >>> prog = build_program("1f1b", num_stages=2, num_microbatches=2)
    >>> (prog.num_stages, prog.num_microbatches, prog.virtual_stages)
    (2, 2, 1)
    >>> ScheduleProgram.from_jsonl(prog.to_jsonl()) == prog
    True
    """

    name: str
    num_stages: int
    num_microbatches: int
    num_chunks: int
    streams: tuple[tuple[Instruction, ...], ...]
    version: int = PROGRAM_VERSION

    def __post_init__(self) -> None:
        check_version("program", self.version, PROGRAM_VERSION)
        if self.num_stages < 1 or self.num_microbatches < 1:
            raise ConfigurationError(
                "need at least one stage and one micro-batch"
            )
        if self.num_chunks % self.num_stages != 0:
            raise ConfigurationError(
                f"num_chunks ({self.num_chunks}) must be a multiple of "
                f"num_stages ({self.num_stages})"
            )
        object.__setattr__(
            self, "streams", tuple(tuple(s) for s in self.streams)
        )

    @cached_property
    def _hash(self) -> int:
        return hash((self.name, self.num_chunks, self.streams))

    def __hash__(self) -> int:
        # hashed once: a shared program is a memo key, its streams long
        return self._hash

    @property
    def virtual_stages(self) -> int:
        """Model chunks per physical stage (1 = non-interleaved)."""
        return self.num_chunks // self.num_stages

    @property
    def num_instructions(self) -> int:
        return sum(len(s) for s in self.streams)

    def stage_edges(self) -> frozenset[tuple[int, int]]:
        """``(sender, receiver)`` stage pairs an activation crosses (its
        gradient returns the same way): chunk ``c`` feeds ``c + 1`` — a
        chain for flat programs, a ring once stages host several chunks."""
        p = self.num_stages
        return frozenset(
            (c % p, (c + 1) % p) for c in range(self.num_chunks - 1)
        )

    def compute_instructions(self, stage: int) -> tuple[Instruction, ...]:
        """The stage's Forward/Backward instructions, in stream order."""
        return tuple(
            i for i in self.streams[stage] if i.op in _COMPUTE_OPS
        )

    # -- serialization ----------------------------------------------------
    _format = LogFormat("schedule program", PROGRAM_VERSION,
                        header=_header_fields, record=Instruction.from_decoded)

    def to_jsonl(self) -> str:
        header = {
            "kind": "schedule_program",
            "name": self.name,
            "num_chunks": self.num_chunks,
            "num_microbatches": self.num_microbatches,
            "num_stages": self.num_stages,
            "version": self.version,
        }
        return dump_log(
            header, (i.to_json() for s in self.streams for i in s))

    @classmethod
    def _of(cls, log: LogFile) -> "ScheduleProgram":
        p = log.header["num_stages"]
        streams: list[list[Instruction]] = [[] for _ in range(p)]
        for instr in log.records:
            if not 0 <= instr.stage < p:
                raise ConfigurationError(
                    f"{log.source}: instruction stage {instr.stage} "
                    f"outside [0, {p})"
                )
            streams[instr.stage].append(instr)
        return cls(streams=streams, **log.header)


@dataclass(frozen=True)
class ProgramCheck:
    """What :func:`verify_program` measured while verifying.

    >>> from repro.parallel.programs import build_program
    >>> check = verify_program(build_program("1f1b", 3, 4))
    >>> check.peak_in_flight        # 1F1B: at most p - stage in flight
    (3, 2, 1)
    """

    num_instructions: int
    #: per-stage peak of outstanding forwards (cache-residency proxy)
    peak_in_flight: tuple[int, ...]


def _show(instr: Instruction) -> str:
    if instr.op == "OptimizerStep":
        return instr.op
    return f"{instr.op} chunk {instr.chunk} mb {instr.microbatch}"


def verify_program(
    program: ScheduleProgram, max_in_flight: int | None = None
) -> ProgramCheck:
    """Statically check an instruction stream before execution.

    Rules enforced (every violation names stage + instruction index):

    1. **Well-formedness** — known ops, in-range micro-batches, every
       chunk filed on its owning stage (``chunk % p == stage``).
    2. **Forward-before-backward** per (chunk, micro-batch), with each
       compute's data dependency (load/recv before forward, gradient
       before backward, compute before its send) satisfied in stream
       order.
    3. **Exactly one ``OptimizerStep`` per stage**, after all of the
       stage's other instructions.
    4. **Completeness** — every (chunk, micro-batch) is forwarded and
       backwarded exactly once, and every required send/recv/load
       appears exactly once.
    5. **Send/recv pairing** — per directed channel and message kind,
       the sent sequence equals the received sequence (the transport is
       FIFO per kind).
    6. **Deadlock-freedom** — an abstract execution over the streams
       makes progress to completion; a stall names every blocked stage.
    7. **Cache residency** (opt-in) — with ``max_in_flight`` given, no
       stage ever holds more outstanding forwards than the bound.

    >>> from repro.parallel.programs import build_program
    >>> verify_program(build_program("gpipe", 2, 3)).num_instructions
    29
    >>> verify_program(build_program("gpipe", 2, 3), max_in_flight=1)
    Traceback (most recent call last):
        ...
    repro.parallel.instructions.ScheduleVerificationError: stage 0, ...
    """
    p, m, c_total = (
        program.num_stages, program.num_microbatches, program.num_chunks
    )
    if len(program.streams) != p:
        raise ScheduleVerificationError(
            f"program declares {p} stages but carries "
            f"{len(program.streams)} streams"
        )

    def err(stage: int, idx: int, instr: Instruction, msg: str):
        raise ScheduleVerificationError(
            f"stage {stage}, instruction {idx} ({_show(instr)}): {msg}"
        )

    last_chunk = c_total - 1
    loads: set[tuple[int, int]] = set()
    forwards: set[tuple[int, int]] = set()
    backwards: set[tuple[int, int]] = set()
    sends_act: set[tuple[int, int]] = set()
    recvs_act: set[tuple[int, int]] = set()
    sends_grad: set[tuple[int, int]] = set()
    recvs_grad: set[tuple[int, int]] = set()
    peaks: list[int] = []

    for s, stream in enumerate(program.streams):
        in_flight = peak = 0
        step_at: int | None = None
        have_input: set[tuple[int, int]] = set()
        have_grad: set[tuple[int, int]] = set()
        done_fwd: set[tuple[int, int]] = set()
        done_bwd: set[tuple[int, int]] = set()
        for i, instr in enumerate(stream):
            if instr.op not in INSTRUCTION_OPS:
                err(s, i, instr, f"unknown op {instr.op!r}")
            if instr.stage != s:
                err(s, i, instr,
                    f"filed under stage {s} but addressed to stage "
                    f"{instr.stage}")
            if step_at is not None:
                err(s, i, instr,
                    f"instruction after OptimizerStep (at index {step_at})")
            if instr.op == "OptimizerStep":
                step_at = i
                continue
            mb, c = instr.microbatch, instr.chunk
            if not 0 <= mb < m:
                err(s, i, instr, f"microbatch {mb} outside [0, {m})")
            if not 0 <= c < c_total:
                err(s, i, instr, f"chunk {c} outside [0, {c_total})")
            if c % p != s:
                err(s, i, instr,
                    f"chunk {c} lives on stage {c % p}, not stage {s}")
            key = (c, mb)
            if instr.op == "LoadMicroBatch":
                if c != 0:
                    err(s, i, instr,
                        "only chunk 0 loads micro-batches from the task")
                if key in loads:
                    err(s, i, instr, "micro-batch loaded twice")
                loads.add(key)
                have_input.add(key)
            elif instr.op == "RecvActivation":
                if c == 0:
                    err(s, i, instr,
                        "chunk 0 loads micro-batches; it has no upstream")
                if key in recvs_act:
                    err(s, i, instr, "activation received twice")
                recvs_act.add(key)
                have_input.add(key)
            elif instr.op == "Forward":
                if key in done_fwd:
                    err(s, i, instr, "micro-batch forwarded twice")
                if key not in have_input:
                    err(s, i, instr,
                        "Forward before its input arrived (no prior "
                        "LoadMicroBatch/RecvActivation)")
                done_fwd.add(key)
                in_flight += 1
                peak = max(peak, in_flight)
            elif instr.op == "SendActivation":
                if c == last_chunk:
                    err(s, i, instr,
                        "the last chunk has no downstream consumer")
                if key in sends_act:
                    err(s, i, instr, "activation sent twice")
                if key not in done_fwd:
                    err(s, i, instr, "SendActivation before its Forward")
                sends_act.add(key)
            elif instr.op == "RecvGrad":
                if c == last_chunk:
                    err(s, i, instr,
                        "the last chunk computes its own loss gradient")
                if key in recvs_grad:
                    err(s, i, instr, "gradient received twice")
                recvs_grad.add(key)
                have_grad.add(key)
            elif instr.op == "Backward":
                if key in done_bwd:
                    err(s, i, instr, "micro-batch backwarded twice")
                if key not in done_fwd:
                    err(s, i, instr,
                        "Backward before Forward for this micro-batch")
                if c != last_chunk and key not in have_grad:
                    err(s, i, instr,
                        "Backward before its gradient arrived (no prior "
                        "RecvGrad)")
                done_bwd.add(key)
                in_flight -= 1
            elif instr.op == "SendGrad":
                if c == 0:
                    err(s, i, instr, "chunk 0 has no upstream to send to")
                if key in sends_grad:
                    err(s, i, instr, "gradient sent twice")
                if key not in done_bwd:
                    err(s, i, instr, "SendGrad before its Backward")
                sends_grad.add(key)
        if step_at is None:
            raise ScheduleVerificationError(
                f"stage {s}, instruction {len(stream)} (end of stream): "
                f"missing OptimizerStep (exactly one required)"
            )
        if max_in_flight is not None and peak > max_in_flight:
            raise ScheduleVerificationError(
                f"stage {s}, instruction 0 (stream): peak of {peak} "
                f"in-flight forwards exceeds the cache-residency bound "
                f"of {max_in_flight}"
            )
        peaks.append(peak)
        forwards |= done_fwd
        backwards |= done_bwd

    # completeness: every (chunk, microbatch) exactly once, everywhere
    for c in range(c_total):
        for mb in range(m):
            key = (c, mb)
            stage = c % p
            def missing(op: str, what: str):
                raise ScheduleVerificationError(
                    f"stage {stage}: {what} — no {op} instruction for "
                    f"chunk {c} mb {mb} in the stream"
                )

            if key not in forwards:
                missing("Forward", f"chunk {c} mb {mb} is never forwarded")
            if key not in backwards:
                missing("Backward",
                        f"chunk {c} mb {mb} is never backwarded")
            if c == 0 and key not in loads:
                missing("LoadMicroBatch",
                        f"micro-batch {mb} is never loaded")
            if c > 0 and key not in recvs_act:
                missing("RecvActivation",
                        f"activation for chunk {c} mb {mb} is never "
                        f"received")
            if c < last_chunk and key not in sends_act:
                missing("SendActivation",
                        f"activation of chunk {c} mb {mb} is never sent")
            if c < last_chunk and key not in recvs_grad:
                missing("RecvGrad",
                        f"gradient for chunk {c} mb {mb} is never "
                        f"received")
            if c > 0 and key not in sends_grad:
                missing("SendGrad",
                        f"gradient of chunk {c} mb {mb} is never sent")

    _check_channels(program)
    return ProgramCheck(
        num_instructions=program.num_instructions,
        peak_in_flight=tuple(peaks),
    )


def _check_channels(program: ScheduleProgram) -> None:
    """Abstract execution: send/recv pairing + deadlock-freedom.

    Channels are FIFO per (src stage, dst stage, message kind) — the
    executor's selective receive (``Transport.recv_matching``) matches
    by phase, so activations and gradients sharing a stage pair do not
    have to interleave identically, but *within* a kind the sender's
    order must equal the receiver's order.
    """
    p = program.num_stages
    channels: dict[tuple[int, int, str], deque] = {}
    ptr = [0] * p
    total = program.num_instructions
    executed = 0
    blocked: dict[int, str] = {}
    while executed < total:
        progressed = False
        for s in range(p):
            stream = program.streams[s]
            while ptr[s] < len(stream):
                instr = stream[ptr[s]]
                if instr.op in ("RecvActivation", "RecvGrad"):
                    act = instr.op == "RecvActivation"
                    src = (instr.chunk + (-1 if act else 1)) % p
                    kind = "act" if act else "grad"
                    want = (instr.chunk, instr.microbatch)
                    q = channels.get((src, s, kind))
                    if not q:
                        blocked[s] = (
                            f"stage {s}, instruction {ptr[s]} "
                            f"({_show(instr)}): waiting on empty "
                            f"{kind} channel {src}->{s}"
                        )
                        break
                    if q[0] != want:
                        raise ScheduleVerificationError(
                            f"stage {s}, instruction {ptr[s]} "
                            f"({_show(instr)}): send/recv mismatch on "
                            f"{kind} channel {src}->{s}: expected chunk "
                            f"{want[0]} mb {want[1]}, channel head is "
                            f"chunk {q[0][0]} mb {q[0][1]}"
                        )
                    q.popleft()
                elif instr.op == "SendActivation":
                    dst = (instr.chunk + 1) % p
                    channels.setdefault((s, dst, "act"), deque()).append(
                        (instr.chunk + 1, instr.microbatch)
                    )
                elif instr.op == "SendGrad":
                    dst = (instr.chunk - 1) % p
                    channels.setdefault((s, dst, "grad"), deque()).append(
                        (instr.chunk - 1, instr.microbatch)
                    )
                blocked.pop(s, None)
                ptr[s] += 1
                executed += 1
                progressed = True
        if not progressed:
            stuck = "; ".join(blocked[s] for s in sorted(blocked))
            raise ScheduleVerificationError(f"deadlock: {stuck}")
    for (src, dst, kind), q in sorted(channels.items()):
        if q:
            raise ScheduleVerificationError(
                f"{kind} channel {src}->{dst} ends with {len(q)} "
                f"unconsumed message(s); first is chunk {q[0][0]} "
                f"mb {q[0][1]}"
            )
