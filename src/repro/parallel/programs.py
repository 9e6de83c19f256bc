"""Schedule generators and the ``register_schedule`` registry.

Built-in generators — ``gpipe``, ``1f1b``, ``interleaved_1f1b`` — emit
:class:`~repro.parallel.instructions.ScheduleProgram` instruction
streams, the only schedule form in the tree.  Each generator states its
per-stage compute order as ``("F"|"B", chunk, microbatch)`` units and
shares one lowering (:func:`_lower`) that wraps every unit in its
load/recv and send instructions.  ``interleaved_1f1b`` implements the
Megatron-LM interleaved schedule: each physical stage hosts
``virtual_stages`` model chunks, shrinking the pipeline bubble by the
same factor at the cost of more p2p traffic.

Third-party schedules plug in through :func:`register_schedule`; every
generated program is validated by
:func:`~repro.parallel.instructions.verify_program` before the engine
will execute it — schedules are data, not trusted code.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from repro.errors import ConfigurationError
from repro.parallel.instructions import (
    Instruction,
    ScheduleProgram,
)

__all__ = [
    "ScheduleGenerator",
    "register_schedule",
    "get_schedule",
    "schedule_names",
    "default_virtual_stages",
    "build_program",
    "program_gpipe",
    "program_1f1b",
    "program_interleaved_1f1b",
]

#: a generator maps (num_stages, num_microbatches, virtual_stages) to a
#: :class:`ScheduleProgram`
ScheduleGenerator = Callable[[int, int, int], ScheduleProgram]

_REGISTRY: dict[str, tuple[ScheduleGenerator, int]] = {}


def register_schedule(
    name: str,
    generator: ScheduleGenerator,
    *,
    virtual_stages: int = 1,
    overwrite: bool = False,
) -> None:
    """Register a schedule generator under ``name``.

    ``virtual_stages`` is the default chunk multiplier a planner should
    use when the user does not pick one (1 for flat schedules, 2 for
    interleaved).  Registered schedules become valid values for
    ``ParallelismSpec.schedule`` and show up in ``repro schedule
    --list``; their programs are statically verified before execution.

    >>> from dataclasses import replace
    >>> from repro.parallel.programs import build_program
    >>> def tiny(p, m, v):
    ...     return replace(program_gpipe(p, m, v), name="tiny_gpipe")
    >>> register_schedule("tiny_gpipe", tiny)
    >>> build_program("tiny_gpipe", 2, 2).name
    'tiny_gpipe'
    >>> register_schedule("tiny_gpipe", tiny)
    Traceback (most recent call last):
        ...
    repro.errors.ConfigurationError: schedule 'tiny_gpipe' is already ...
    """
    if not name or not isinstance(name, str):
        raise ConfigurationError("schedule name must be a non-empty string")
    if name in _REGISTRY and not overwrite:
        raise ConfigurationError(
            f"schedule {name!r} is already registered "
            f"(pass overwrite=True to replace it)"
        )
    if virtual_stages < 1:
        raise ConfigurationError("virtual_stages must be >= 1")
    _REGISTRY[name] = (generator, virtual_stages)


def get_schedule(name: str) -> ScheduleGenerator:
    """Look up a registered generator, or raise naming the options.

    >>> get_schedule("1f1b") is program_1f1b
    True
    """
    try:
        return _REGISTRY[name][0]
    except KeyError:
        raise ConfigurationError(
            f"unknown schedule {name!r}; registered schedules: "
            f"{', '.join(schedule_names())}"
        ) from None


def schedule_names() -> tuple[str, ...]:
    """All registered schedule names, sorted.

    >>> [n for n in schedule_names() if not n.startswith("tiny")]
    ['1f1b', 'gpipe', 'interleaved_1f1b']
    """
    return tuple(sorted(_REGISTRY))


def default_virtual_stages(name: str) -> int:
    """The chunk multiplier a schedule uses when none is requested.

    >>> (default_virtual_stages("1f1b"),
    ...  default_virtual_stages("interleaved_1f1b"))
    (1, 2)
    """
    if name not in _REGISTRY:
        raise ConfigurationError(
            f"unknown schedule {name!r}; registered schedules: "
            f"{', '.join(schedule_names())}"
        )
    return _REGISTRY[name][1]


def build_program(
    name: str,
    num_stages: int,
    num_microbatches: int,
    virtual_stages: int = 1,
) -> ScheduleProgram:
    """The named schedule's program for (p, m, v), generated once per
    shape per process: equal arguments get the same frozen instance.

    >>> prog = build_program("gpipe", 2, 3)
    >>> [i.op for i in prog.streams[1][:2]]
    ['RecvActivation', 'Forward']
    """
    if num_stages < 1:
        raise ConfigurationError("need at least one stage")
    if num_microbatches < 1:
        raise ConfigurationError("need at least one micro-batch")
    if virtual_stages < 1:
        raise ConfigurationError("virtual_stages must be >= 1")
    return _generate(
        get_schedule(name), num_stages, num_microbatches, virtual_stages
    )


@lru_cache(maxsize=256)
def _generate(
    generator: ScheduleGenerator, p: int, m: int, v: int
) -> ScheduleProgram:
    """Keyed on the generator *object*, so a re-registered name is never
    answered with the old program; a generator that raises is not cached.
    """
    return generator(p, m, v)


#: one compute unit of a stage's order: ("F" | "B", chunk, microbatch)
_Unit = tuple[str, int, int]


def _lower(
    name: str,
    num_stages: int,
    num_microbatches: int,
    virtual_stages: int,
    compute_order: Callable[[int], list[_Unit]],
) -> ScheduleProgram:
    """Expand per-stage compute orders into full instruction streams.

    ``compute_order(s)`` lists stage ``s``'s work in execution order.
    Each ``F`` becomes load (first chunk) or recv + ``Forward`` + send
    (unless last chunk); each ``B`` becomes recv (unless last chunk) +
    ``Backward`` + send (unless first chunk); a single ``OptimizerStep``
    closes every stream.  Compute order is preserved exactly.

    >>> prog = _lower("demo", 1, 2, 1, lambda s: [
    ...     ("F", 0, 0), ("F", 0, 1), ("B", 0, 0), ("B", 0, 1)])
    >>> [i.op for i in prog.streams[0]]
    ['LoadMicroBatch', 'Forward', 'LoadMicroBatch', 'Forward', \
'Backward', 'Backward', 'OptimizerStep']
    """
    if num_stages < 1 or num_microbatches < 1:
        raise ConfigurationError("need at least one stage and one micro-batch")
    num_chunks = num_stages * virtual_stages
    last = num_chunks - 1
    streams: list[tuple[Instruction, ...]] = []
    for s in range(num_stages):
        instrs: list[Instruction] = []
        for kind, chunk, mb in compute_order(s):
            if kind == "F":
                source = "LoadMicroBatch" if chunk == 0 else "RecvActivation"
                instrs.append(Instruction(source, s, mb, chunk))
                instrs.append(Instruction("Forward", s, mb, chunk))
                if chunk < last:
                    instrs.append(Instruction("SendActivation", s, mb, chunk))
            else:
                if chunk < last:
                    instrs.append(Instruction("RecvGrad", s, mb, chunk))
                instrs.append(Instruction("Backward", s, mb, chunk))
                if chunk > 0:
                    instrs.append(Instruction("SendGrad", s, mb, chunk))
        instrs.append(Instruction("OptimizerStep", s))
        streams.append(tuple(instrs))
    return ScheduleProgram(
        name=name,
        num_stages=num_stages,
        num_microbatches=num_microbatches,
        num_chunks=num_chunks,
        streams=tuple(streams),
    )


def _require_flat(name: str, virtual_stages: int) -> None:
    if virtual_stages != 1:
        raise ConfigurationError(
            f"schedule {name!r} does not support virtual stages "
            f"(got virtual_stages={virtual_stages}); use "
            f"'interleaved_1f1b' for v > 1"
        )


def program_gpipe(
    num_stages: int, num_microbatches: int, virtual_stages: int = 1
) -> ScheduleProgram:
    """GPipe: all forwards, then all backwards, per stage.

    >>> program_gpipe(2, 2).compute_instructions(0)[0].op
    'Forward'
    """
    _require_flat("gpipe", virtual_stages)
    m = num_microbatches

    def order(s: int) -> list[_Unit]:
        return [("F", s, k) for k in range(m)] + [("B", s, k) for k in range(m)]

    return _lower("gpipe", num_stages, m, 1, order)


def program_1f1b(
    num_stages: int, num_microbatches: int, virtual_stages: int = 1
) -> ScheduleProgram:
    """1F1B: warm-up forwards, then strict one-forward-one-backward.

    Stage ``s`` warms up with ``min(p - s - 1, m)`` forwards, then
    alternates one-forward-one-backward, then drains the remaining
    backwards.

    >>> prog = program_1f1b(2, 4)
    >>> [
    ...     (i.op[0], i.microbatch)
    ...     for i in prog.compute_instructions(0)[:4]
    ... ]
    [('F', 0), ('F', 1), ('B', 0), ('F', 2)]
    """
    _require_flat("1f1b", virtual_stages)
    p, m = num_stages, num_microbatches

    def order(s: int) -> list[_Unit]:
        warmup = min(p - s - 1, m)
        units: list[_Unit] = [("F", s, k) for k in range(warmup)]
        for k in range(warmup, m):
            units.append(("F", s, k))
            units.append(("B", s, k - warmup))
        units.extend(("B", s, k) for k in range(m - warmup, m))
        return units

    return _lower("1f1b", p, m, 1, order)


def program_interleaved_1f1b(
    num_stages: int, num_microbatches: int, virtual_stages: int = 2
) -> ScheduleProgram:
    """Megatron-LM interleaved 1F1B over ``virtual_stages`` chunks.

    Each physical stage hosts ``v`` model chunks (stage ``s`` holds
    chunks ``s, s+p, ..., s+(v-1)p``); micro-batches advance in groups
    of ``p``, and each stage's warm-up covers ``(p - s - 1) * 2 +
    (v - 1) * p`` compute units before entering 1F1B steady state.  The
    bubble shrinks to ``(p-1)/v`` compute slots per iteration — the
    reason this schedule beats GPipe and flat 1F1B at equal (p, m).

    Requires ``v >= 2`` and ``m % p == 0`` (micro-batch groups must
    fill the pipeline width, as in Megatron-LM).

    >>> prog = program_interleaved_1f1b(2, 4, 2)
    >>> (prog.num_chunks, prog.virtual_stages)
    (4, 2)
    >>> [
    ...     (i.op[0], i.chunk, i.microbatch)
    ...     for i in prog.compute_instructions(0)[:4]
    ... ]
    [('F', 0, 0), ('F', 0, 1), ('F', 2, 0), ('F', 2, 1)]
    """
    p, m, v = num_stages, num_microbatches, virtual_stages
    if v < 2:
        raise ConfigurationError(
            f"interleaved_1f1b needs virtual_stages >= 2 (got {v}); "
            f"use '1f1b' for a flat pipeline"
        )
    if m % p != 0:
        raise ConfigurationError(
            f"interleaved_1f1b needs num_microbatches divisible by "
            f"num_stages (got m={m}, p={p})"
        )
    total = m * v  # compute units of each kind per stage

    def order(s: int) -> list[_Unit]:
        def f_unit(i: int) -> _Unit:
            group, k = divmod(i, p * v)
            return ("F", s + (k // p) * p, group * p + k % p)

        def b_unit(i: int) -> _Unit:
            group, k = divmod(i, p * v)
            return ("B", s + (v - 1 - k // p) * p, group * p + k % p)

        if m == p:
            warmup = total
        else:
            warmup = min(total, (p - s - 1) * 2 + (v - 1) * p)
        units = [f_unit(i) for i in range(warmup)]
        for i in range(total - warmup):
            units.append(f_unit(warmup + i))
            units.append(b_unit(i))
        units.extend(b_unit(i) for i in range(total - warmup, total))
        return units

    return _lower("interleaved_1f1b", p, m, v, order)


register_schedule("gpipe", program_gpipe)
register_schedule("1f1b", program_1f1b)
register_schedule("interleaved_1f1b", program_interleaved_1f1b,
                  virtual_stages=2)
