"""Micro-benchmarks of Swift's primitive operations (real wall time).

These measure the *actual* Python/NumPy cost of the operations the paper's
overhead arguments rest on, at growing model sizes:

* ``optimizer.step`` vs ``optimizer.undo`` — undo must be no more
  expensive than the update it inverts (Section 4's "undoing the update
  does not require extra GPU memory" has a time analogue);
* snapshot (deep state copy) — what CheckFreq/Elastic Horovod pay per
  snapshot, for comparison;
* state serialization — the checkpoint encoding cost;
* one logged-iteration replay — the unit of logging-based recovery.
"""

import numpy as np
import pytest

from _common import emit, fmt_table
from helpers_bench import small_pipeline
from repro.cluster import Cluster
from repro.models import make_mlp
from repro.nn import CrossEntropyLoss
from repro.optim import Adam
from repro.utils.serialization import clone_state, save_state_bytes

SIZES = {"small": (32, 64), "medium": (128, 256)}


def trained_model(hidden, width, steps=1):
    model = make_mlp(hidden, width, 8, depth=2, seed=1)
    opt = Adam(model, lr=1e-3)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(16, hidden))
    y = rng.integers(0, 8, 16)
    grads = opt.grad_buffer()
    for _ in range(steps):
        grads.zero()
        lf = CrossEntropyLoss()
        lf(model(x), y)
        model.backward(lf.backward())
        opt.step_flat(grads.data)
    return model, opt, grads


@pytest.mark.parametrize("size", list(SIZES))
def test_step_vs_undo(benchmark, size):
    hidden, width = SIZES[size]
    model, opt, grads = trained_model(hidden, width, steps=3)

    def step_then_undo():
        opt.step_flat(grads.data)
        opt.undo()

    benchmark(step_then_undo)
    emit(
        f"micro_step_undo_{size}",
        fmt_table(
            ["model", "params", "note"],
            [[size, model.num_parameters(),
              "benchmark measures one step+undo round-trip"]],
        ),
    )


@pytest.mark.parametrize("size", list(SIZES))
def test_snapshot_clone(benchmark, size):
    hidden, width = SIZES[size]
    model, opt, _ = trained_model(hidden, width)
    state = {**{f"m/{k}": v for k, v in model.state_dict().items()},
             **{f"o/{k}": v for k, v in opt.state_dict().items()}}
    benchmark(clone_state, state)


@pytest.mark.parametrize("size", list(SIZES))
def test_state_serialization(benchmark, size):
    hidden, width = SIZES[size]
    model, _, _ = trained_model(hidden, width)
    benchmark(save_state_bytes, model.state_dict())


def test_one_iteration_replay_unit(benchmark):
    """Replay cost of a single pipeline iteration on the live engine."""
    cluster = Cluster(4, devices_per_machine=1)
    engine = small_pipeline(cluster)
    benchmark(engine.run_iteration)


def test_undo_not_slower_than_step(benchmark):
    """Sanity: a full undo costs about the same as a full step."""
    import time

    model, opt, grads = trained_model(128, 256, steps=3)

    def measure():
        t0 = time.perf_counter()
        for _ in range(20):
            opt.step_flat(grads.data)
        t_step = time.perf_counter() - t0
        # rewind to keep the comparison at the same state depth
        t0 = time.perf_counter()
        for _ in range(20):
            opt.undo()
        t_undo = time.perf_counter() - t0
        return t_step, t_undo

    t_step, t_undo = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(
        "micro_undo_vs_step",
        fmt_table(
            ["op", "seconds for 20 rounds"],
            [["step x20", f"{t_step:.4f}"], ["undo x20", f"{t_undo:.4f}"]],
        ),
    )
    assert t_undo < 3.0 * t_step
