"""Ablation: 1F1B vs GPipe vs interleaved 1F1B (the Section 2.1 choice).

The paper adopts 1F1B because it has the same bubble ratio as GPipe but
lower peak memory.  This benchmark quantifies both sides across pipeline
shapes, plus the bubble time that Swift's logging exploits, and adds the
interleaved-1F1B column: with ``v`` virtual stages per worker the
warm-up bubble shrinks by ``1/v`` at the price of more in-flight
micro-batch state.
"""

from _common import emit, fmt_table
from repro.parallel import bubble_ratio, build_program, simulate_program

SHAPES = [(4, 4), (4, 16), (8, 8), (8, 32), (16, 16)]

#: virtual stages per worker for the interleaved column
VIRTUAL = 2


def simulate(p: int, m: int):
    return tuple(
        simulate_program(build_program(name, p, m, v), [1.0] * p, [2.0] * p)
        for name, v in (("1f1b", 1), ("gpipe", 1),
                        ("interleaved_1f1b", VIRTUAL))
    )


def compute():
    rows = []
    for p, m in SHAPES:
        a, b, c = simulate(p, m)
        rows.append([
            f"p={p}, m={m}",
            f"{bubble_ratio(p, m):.3f}",
            f"{a.iteration_time:.0f}",
            f"{b.iteration_time:.0f}",
            f"{c.iteration_time:.0f}",
            max(a.max_in_flight),
            max(b.max_in_flight),
            max(c.max_in_flight),
            f"{sum(a.stage_bubble) / p:.1f}",
            f"{sum(c.stage_bubble) / p:.1f}",
        ])
    return rows


def test_ablation_schedules(benchmark):
    rows = benchmark(compute)
    emit(
        "ablation_schedules",
        fmt_table(
            ["pipeline", "bubble ratio", "1F1B span", "GPipe span",
             f"interleaved(v={VIRTUAL}) span",
             "1F1B peak in-flight", "GPipe peak in-flight",
             "interleaved peak in-flight",
             "avg bubble/stage (logging budget)",
             "interleaved bubble/stage"],
            rows,
        ),
    )
    for p, m in SHAPES:
        a, b, c = simulate(p, m)
        # same span (same bubble ratio) ...
        assert abs(a.iteration_time - b.iteration_time) < 1e-9
        # ... but 1F1B bounds in-flight micro-batches by p, GPipe by m
        assert max(a.max_in_flight) <= p
        assert max(b.max_in_flight) == m
        if m > p:
            assert max(a.max_in_flight) < max(b.max_in_flight)
        # interleaving shortens the warm-up bubble: v chunks of 1/v cost
        # fill the pipeline v times faster, so both span and per-stage
        # bubble drop below the flat schedules
        assert c.iteration_time < a.iteration_time
        assert sum(c.stage_bubble) < sum(a.stage_bubble)
