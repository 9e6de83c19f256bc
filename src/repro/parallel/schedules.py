"""Pipeline schedule timing: bubble ratio and the static program simulator.

The paper adopts the One-Forward-One-Backward (1F1B) schedule (Figure 1a):
both 1F1B and GPipe have bubble ratio ``(p-1)/(m+p-1)``, but 1F1B holds at
most ``p - stage`` in-flight micro-batches, so peak memory is lower
(Section 2.1).  Bubble *time* matters doubly for Swift: it is the window in
which asynchronous logging hides its PCIe copies (Section 5.1), and its
absence during replay is why recovery runs faster than the original
execution (Figure 1b).

Schedules themselves are instruction-stream programs generated in
:mod:`repro.parallel.programs`; this module prices them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = [
    "bubble_ratio",
    "ScheduleTiming",
    "simulate_program",
]


def bubble_ratio(num_stages: int, num_microbatches: int) -> float:
    """Idle fraction of 1F1B/GPipe pipelines: (p-1)/(m+p-1) (Section 2.1)."""
    p, m = num_stages, num_microbatches
    if p < 1 or m < 1:
        raise ConfigurationError("need at least one stage and one micro-batch")
    return (p - 1) / (m + p - 1)


@dataclass
class ScheduleTiming:
    """Static timing of one pipeline iteration."""

    #: (chunk, "F" | "B", microbatch) -> (start, end) in seconds from
    #: iteration start; on flat programs the chunk is the stage
    op_times: dict[tuple[int, str, int], tuple[float, float]]
    #: per-stage completion time of the last op
    stage_finish: list[float]
    #: per-stage idle (bubble) seconds within [first op start, last op end]
    stage_bubble: list[float]

    @property
    def iteration_time(self) -> float:
        return max(self.stage_finish)

    @property
    def max_in_flight(self) -> list[int]:
        """Peak number of outstanding forwards per stage (memory proxy)."""
        peaks = []
        p = len(self.stage_finish)
        by_stage: dict[int, list[tuple[float, int]]] = {}
        for (chunk, kind, _), (start, _end) in self.op_times.items():
            delta = 1 if kind == "F" else -1
            by_stage.setdefault(chunk % p, []).append((start, delta))
        for stage in sorted(by_stage):
            level = peak = 0
            for _, delta in sorted(by_stage[stage]):
                level += delta
                peak = max(peak, level)
            peaks.append(peak)
        return peaks


def simulate_program(
    program,
    fwd_time: list[float],
    bwd_time: list[float],
    comm_time: float = 0.0,
) -> ScheduleTiming:
    """Compute start/end times of every compute instruction of a program.

    Compute instructions serialize per stage in stream order; a Forward
    on chunk ``c > 0`` waits for the Forward on chunk ``c-1`` plus
    transfer; a Backward on the last chunk waits for its own Forward;
    any other Backward waits for the Backward on chunk ``c+1`` plus
    transfer.  With ``virtual_stages > 1`` each chunk costs ``1/v`` of
    the stage's full forward/backward time.  The solver sweeps until
    fixpoint (the DAG is acyclic, so each pass resolves at least one
    instruction — O(total²) worst case, fine at this scale).

    >>> from repro.parallel.programs import build_program
    >>> t = simulate_program(build_program("1f1b", 2, 2), [1.0, 1.0],
    ...                      [2.0, 2.0])
    >>> t.op_times[(0, "F", 0)]
    (0.0, 1.0)
    >>> t.iteration_time
    9.0
    """
    p = program.num_stages
    v = program.virtual_stages
    last_chunk = program.num_chunks - 1
    per_stage = [program.compute_instructions(s) for s in range(p)]
    done: dict[tuple[int, str, int], tuple[float, float]] = {}
    pointer = [0] * p
    stage_free = [0.0] * p

    def key_of(instr) -> tuple[int, str, int]:
        return (instr.chunk, instr.op[0], instr.microbatch)

    def dep_ready(instr) -> float | None:
        """End time of the cross-chunk dependency, or None if unmet."""
        if instr.op == "Forward":
            if instr.chunk == 0:
                return 0.0
            prev = done.get((instr.chunk - 1, "F", instr.microbatch))
        else:
            if instr.chunk == last_chunk:
                prev = done.get((instr.chunk, "F", instr.microbatch))
                return prev[1] if prev else None
            prev = done.get((instr.chunk + 1, "B", instr.microbatch))
        return prev[1] + comm_time if prev else None

    total = sum(len(ops) for ops in per_stage)
    while len(done) < total:
        progressed = False
        for stage in range(p):
            while pointer[stage] < len(per_stage[stage]):
                instr = per_stage[stage][pointer[stage]]
                ready = dep_ready(instr)
                if ready is None:
                    break
                start = max(stage_free[stage], ready)
                full = fwd_time[stage] if instr.op == "Forward" else bwd_time[stage]
                duration = full if v == 1 else full / v
                end = start + duration
                done[key_of(instr)] = (start, end)
                stage_free[stage] = end
                pointer[stage] += 1
                progressed = True
        if not progressed:
            raise ConfigurationError("schedule deadlock: invalid op ordering")

    stage_finish, stage_bubble = [], []
    for stage in range(p):
        ops = [done[key_of(i)] for i in per_stage[stage]]
        busy = sum(end - start for start, end in ops)
        first = min(start for start, _ in ops)
        last = max(end for _, end in ops)
        stage_finish.append(last)
        stage_bubble.append((last - first) - busy)
    return ScheduleTiming(done, stage_finish, stage_bubble)
