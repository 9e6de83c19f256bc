"""Shared test utilities: numerical gradient checks and engine builders."""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from optim_oracle import EagerDataParallelEngine
from repro.api import (
    ClusterSpec,
    DataSpec,
    Experiment,
    ModelSpec,
    ParallelismSpec,
)
from repro.cluster import Cluster
from repro.data import ClassificationTask
from repro.models import make_mlp
from repro.nn import CrossEntropyLoss, Module
from repro.optim import Adam, SGDMomentum
from repro.parallel import (
    DataParallelEngine,
    PipelineEngine,
    default_virtual_stages,
    partition_by_sizes,
)
from repro.utils import state_allclose, state_equal


def numerical_grad_check(
    module: Module,
    x: np.ndarray,
    *,
    eps: float = 1e-6,
    atol: float = 1e-5,
    rtol: float = 1e-4,
    num_entries: int = 5,
    seed: int = 0,
) -> None:
    """Assert analytic parameter and input gradients match finite differences.

    Uses a random linear functional of the output as the scalar loss, which
    exercises the full Jacobian without needing a labelled task.
    """
    rng = np.random.default_rng(seed)
    module.train()
    out = module(x)
    w = rng.normal(size=out.shape)
    module.zero_grad()
    grad_in = module.backward(w)

    def loss_at() -> float:
        return float((module(x) * w).sum())

    # parameter gradients
    for name, param in module.named_parameters():
        if param.grad is None:
            continue
        flat = param.data.reshape(-1)
        grad_flat = param.grad.reshape(-1)
        for idx in rng.choice(flat.size, size=min(num_entries, flat.size),
                              replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = loss_at()
            flat[idx] = orig - eps
            down = loss_at()
            flat[idx] = orig
            num = (up - down) / (2 * eps)
            assert np.isclose(num, grad_flat[idx], atol=atol, rtol=rtol), (
                f"param {name}[{idx}]: numeric {num} vs analytic {grad_flat[idx]}"
            )

    # input gradient (skip integer inputs, e.g. token ids)
    if np.issubdtype(x.dtype, np.floating):
        flat_x = x.reshape(-1)
        grad_x = grad_in.reshape(-1)
        for idx in rng.choice(flat_x.size, size=min(num_entries, flat_x.size),
                              replace=False):
            orig = flat_x[idx]
            flat_x[idx] = orig + eps
            up = loss_at()
            flat_x[idx] = orig - eps
            down = loss_at()
            flat_x[idx] = orig
            num = (up - down) / (2 * eps)
            assert np.isclose(num, grad_x[idx], atol=atol, rtol=rtol), (
                f"input[{idx}]: numeric {num} vs analytic {grad_x[idx]}"
            )


def even_stage_split(model: ModelSpec, stages: int):
    """``(model, stage list)``: ``model`` built and cut the way a PP run
    cuts it, ``partition_by_sizes`` over the even layer split of
    ``Experiment.resolved_partition_sizes``."""
    data = {"mlp": "classification", "bert": "tokens"}.get(model.family,
                                                           "images")
    exp = Experiment(
        model=model, data=DataSpec(kind=data),
        cluster=ClusterSpec(num_machines=stages, devices_per_machine=1),
        parallelism=ParallelismSpec(kind="pp", num_workers=stages),
    )
    built = model.build()
    return built, partition_by_sizes(built, exp.resolved_partition_sizes())


def make_dp_engine(
    cluster: Cluster | None = None,
    *,
    num_workers: int = 4,
    machines: int = 2,
    seed: int = 7,
    lr: float = 0.05,
    opt_factory=None,
    eager: bool = False,
) -> DataParallelEngine:
    """Small 2-machine data-parallel MLP setup used across tests
    (SGD-momentum unless ``opt_factory(model)`` builds another); ``eager``
    builds the per-parameter reference engine of ``optim_oracle``."""
    cluster = cluster or Cluster(machines, devices_per_machine=num_workers // machines)
    per = num_workers // machines
    placement = [(m, d) for m in range(machines) for d in range(per)]
    task = ClassificationTask(dim=8, num_classes=4, batch_size=16, seed=3)
    engine_cls = EagerDataParallelEngine if eager else DataParallelEngine
    return engine_cls(
        cluster,
        model_factory=lambda: make_mlp(8, 16, 4, seed=seed),
        opt_factory=opt_factory or (lambda m: SGDMomentum(
            m, lr=lr, momentum=0.9, weight_decay=1e-4)),
        loss_factory=CrossEntropyLoss,
        task=task,
        placement=placement,
    )


def make_pp_engine(
    cluster: Cluster | None = None,
    *,
    num_stages: int = 4,
    num_microbatches: int = 4,
    seed: int = 7,
    opt: str = "adam",
    stages_per_machine: int = 1,
    schedule: str = "1f1b",
    depth: int = 3,
) -> PipelineEngine:
    """Small pipeline MLP setup: depth-3 MLP split into 4 stages
    (``[2, 2, 2, 1]`` layers); other schedules/depths split the
    ``2 * depth + 1`` layers evenly over the schedule's chunks."""
    machines = num_stages // stages_per_machine
    cluster = cluster or Cluster(machines, devices_per_machine=stages_per_machine)
    placement = [
        (s // stages_per_machine, s % stages_per_machine)
        for s in range(num_stages)
    ]
    task = ClassificationTask(dim=8, num_classes=4, batch_size=16, seed=3)
    opt_factory: Callable
    if opt == "adam":
        opt_factory = lambda m: Adam(m, lr=0.01, weight_decay=1e-4)  # noqa: E731
    else:
        opt_factory = lambda m: SGDMomentum(m, lr=0.05, momentum=0.9)  # noqa: E731
    chunks = num_stages * default_virtual_stages(schedule)
    base, rem = divmod(2 * depth + 1, chunks)
    return PipelineEngine(
        cluster,
        model_factory=lambda: make_mlp(8, 16, 4, depth=depth, seed=seed),
        partition_sizes=[base + (c < rem) for c in range(chunks)],
        placement=placement,
        num_microbatches=num_microbatches,
        opt_factory=opt_factory,
        loss_factory=CrossEntropyLoss,
        task=task,
        schedule=schedule,
    )


def assert_shared(engine: DataParallelEngine) -> None:
    """The fused DP replicas share one arena: the canonical is live and
    flat-bound, and every other live worker aliases its frozen views leaf
    for leaf (parameters and every slot)."""
    canon, order = engine._canonical, engine.update_order
    live = engine.alive_workers()
    assert any(w is canon for w in live), "canonical is not a live worker"
    copt = canon.optimizer
    assert copt.flat_bound(order)
    arena = copt.flat_arena(order)
    fparams = arena.params.frozen_views()
    fslots = {s: b.frozen_views() for s, b in arena.slots.items()}
    for w in live:
        if w is canon:
            continue
        wopt = w.optimizer
        for name in order:
            assert wopt.params[name].data is fparams[name], (w.rank, name)
            assert wopt.state[name].keys() == copt.state[name].keys()
            for slot in copt.state[name]:
                assert wopt.state[name][slot] is fslots[slot][name], (
                    w.rank, name, slot)


def pipeline_states(engine: PipelineEngine) -> dict[int, dict[str, np.ndarray]]:
    return {sid: s.module.state_dict() for sid, s in enumerate(engine.stages)}


def states_allclose(a, b, atol=1e-7) -> bool:
    return all(
        np.allclose(a[sid][k], b[sid][k], atol=atol) for sid in a for k in a[sid]
    )


def states_equal(a, b) -> bool:
    return all(np.array_equal(a[sid][k], b[sid][k]) for sid in a for k in a[sid])


def engine_snapshot(engine, tlog=None) -> dict:
    """What a recovery that refuses must leave exactly as it found it:
    every holder object (dead ones included), its state and progress
    marks, the engine's iteration, the tensor log's records."""
    holders = list(getattr(engine, "stages", None) or engine.workers)
    return {
        "holders": holders,
        "states": [h.full_state() for h in holders],
        "progress": [
            (h.iteration, list(getattr(h, "updated_params", ())),
             getattr(h, "updated_this_iteration", None))
            for h in holders
        ],
        "iteration": engine.iteration,
        "log_records": None if tlog is None else len(tlog._index),
    }


def assert_untouched(before: dict, engine, tlog=None) -> None:
    after = engine_snapshot(engine, tlog)
    assert len(before["holders"]) == len(after["holders"])
    for old, new in zip(before["holders"], after["holders"]):
        assert old is new
    for old, new in zip(before["states"], after["states"]):
        assert state_equal(old, new)
    for key in ("progress", "iteration", "log_records"):
        assert before[key] == after[key], key


def assert_back_at_iteration_start(engine, view: dict, exact: bool = True
                                   ) -> None:
    """After ``recover()``: every holder is where ``view`` (an
    :func:`engine_snapshot` taken as the interrupted iteration began)
    found it — its state, buffers included, bitwise (to rounding unless
    ``exact``: an undone update or a parallel replay), its iteration, no
    update marks left — and no message is in flight."""
    after = engine_snapshot(engine)
    assert after["iteration"] == view["iteration"]
    for holder, (old, new) in enumerate(zip(view["states"], after["states"])):
        assert (state_equal(old, new) if exact
                else state_allclose(old, new, atol=1e-7)), holder
    for (iteration, _, _), (now, marks, _) in zip(view["progress"],
                                                 after["progress"]):
        assert now == iteration and not marks
    transport = getattr(engine, "transport", None)
    if transport is not None:
        ranks = range(len(after["holders"]))
        assert not any(transport.pending(s, d) for s in ranks for d in ranks)
