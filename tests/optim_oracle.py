"""The per-parameter update path, kept as the oracle of the flat kernels.

Every optimizer applies its update through one fused kernel,
``Optimizer.step_flat``, over a flat arena.  The functions here restate
each update rule one parameter at a time, with fresh NumPy temporaries and
no arena: the same elementwise arithmetic with the same scalars, so a
kernel that drifts by one bit from its rule fails the bitwise comparisons
in ``tests/test_flat.py`` and ``benchmarks/bench_step.py``.

* :func:`reference_step` updates one parameter, with the bookkeeping
  ``step_flat`` does: slots created over zeros, the step count, the ``lr``
  journal (and LAMB's trust ratio), the dirty mark; a refused LAMB step
  raises before any of it.
* :class:`EagerDataParallelEngine` is a DP engine whose reduce+update tail
  is one all-reduce and one :func:`reference_step` per parameter on every
  replica: no arena, no sharing.  Each replica's gradients start as its
  own zeroed arrays, and the all-reduce is written out: the lowest
  rank's copy, then ``+=`` in ascending rank, then the mean.
* :class:`EagerFSDPEngine` is the same for sharded DP: per-worker zeroed
  gradients, one written-out rank-order reduce per parameter handed to its
  owner, one :func:`reference_step` per owned parameter.
* :func:`eager_pipeline_steps` makes every ``PipelineStage.step`` a
  :func:`reference_step` loop over the stage's parameters.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.cluster.failures import FailurePhase
from repro.errors import ConfigurationError, ShapeError
from repro.optim import LAMB, SGD, AMSGrad, Adam, AdamW, SGDMomentum
from repro.parallel import DataParallelEngine, FSDPEngine
from repro.parallel.pipeline import PipelineStage
from repro.parallel.results import IterationResult


def _moments(opt, m, v, g) -> None:
    m *= opt.beta1
    m += (1.0 - opt.beta1) * g
    v *= opt.beta2
    v += (1.0 - opt.beta2) * g**2


def _direction(opt, m, v, t) -> np.ndarray:
    """Bias-corrected ``m_hat / (sqrt(v_hat) + eps)``."""
    m_hat = m / (1.0 - opt.beta1**t)
    v_hat = v / (1.0 - opt.beta2**t)
    return m_hat / (np.sqrt(v_hat) + opt.eps)


def _sgd(opt, name, param, grad, slots, t) -> None:
    param.data -= opt.lr * (grad + opt.weight_decay * param.data)


def _sgd_momentum(opt, name, param, grad, slots, t) -> None:
    m = slots["momentum"]
    g = grad + opt.weight_decay * param.data
    m *= opt.momentum
    m += (1.0 - opt.dampening) * g
    param.data -= opt.lr * m


def _adam(opt, name, param, grad, slots, t) -> None:
    m, v = slots["m"], slots["v"]
    _moments(opt, m, v, grad + opt.weight_decay * param.data)
    param.data -= opt.lr * _direction(opt, m, v, t)


def _adamw(opt, name, param, grad, slots, t) -> None:
    m, v = slots["m"], slots["v"]
    _moments(opt, m, v, grad)
    param.data -= opt.lr * (_direction(opt, m, v, t)
                            + opt.weight_decay * param.data)


def _amsgrad(opt, name, param, grad, slots, t) -> None:
    m, v, v_max = slots["m"], slots["v"], slots["v_max"]
    _moments(opt, m, v, grad + opt.weight_decay * param.data)
    np.maximum(v_max, v, out=v_max)
    m_hat = m / (1.0 - opt.beta1**t)
    v_hat = v_max / (1.0 - opt.beta2**t)
    param.data -= opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)


def _lamb(opt, name, param, grad, slots, t) -> None:
    m, v = slots["m"], slots["v"]
    _moments(opt, m, v, grad)
    r = _direction(opt, m, v, t) + opt.weight_decay * param.data
    x_norm = float(np.linalg.norm(param.data))
    r_norm = float(np.linalg.norm(r))
    trust = x_norm / r_norm if x_norm > 0.0 and r_norm > 0.0 else 1.0
    if opt.lr * trust * opt.weight_decay >= 1.0:
        raise ConfigurationError(
            "lr * trust * weight_decay >= 1 makes this LAMB step "
            "non-invertible")
    opt.undo_journal[name]["trust"] = trust
    param.data -= opt.lr * trust * r


RULES = {SGD: _sgd, SGDMomentum: _sgd_momentum, Adam: _adam,
         AdamW: _adamw, AMSGrad: _amsgrad, LAMB: _lamb}


def reference_step(opt, name: str) -> None:
    """Update parameter ``name`` of ``opt`` as ``step_flat`` would."""
    param = opt.params[name]
    if param.grad is None:
        raise ShapeError(f"parameter {name!r} has no gradient")
    slots = opt.state[name]
    for slot in opt.flat_slots:
        slots.setdefault(slot, np.zeros_like(param.data))
    t = opt.step_counts[name] + 1
    RULES[type(opt)](opt, name, param, param.grad, slots, t)
    opt.step_counts[name] = t
    opt.undo_journal[name]["lr"] = opt.lr
    opt.dirty_params.add(name)


def reference_steps(opt, order=None, count: int | None = None) -> list[str]:
    """:func:`reference_step` over the first ``count`` names of ``order``
    (default: every parameter) — ``step_flat``'s signature, one by one."""
    names = list(order) if order is not None else list(opt.params)
    names = names if count is None else names[: max(count, 0)]
    for name in names:
        reference_step(opt, name)
    return names


class EagerDataParallelEngine(DataParallelEngine):
    """DP with the per-parameter tail: gradients zeroed per replica, one
    all-reduce and one :func:`reference_step` per parameter per replica."""

    def _seed_grads(self, live) -> None:
        for w in live:
            for p in w.optimizer.params.values():
                p.grad = np.zeros_like(p.data)

    def _reduce_and_update(self, live, losses, t_compute, failure,
                           survivor_progress) -> IterationResult:
        grad_bytes = 0
        params_by_rank = [dict(w.model.named_parameters()) for w in self.workers]
        with self.recorder.span("engine/allreduce") as sp:
            self.group.check_members(w.rank for w in live)
            for name in self.update_order:
                reduced = rank_order_mean({
                    w.rank: params_by_rank[w.rank][name].grad for w in live})
                grad_bytes += int(reduced.nbytes)
                for w in live:
                    params_by_rank[w.rank][name].grad = np.array(reduced,
                                                                 copy=True)
            sp.set(bytes=grad_bytes)
        t_comm = self.group.allreduce_time(grad_bytes)

        mid_update = (
            failure is not None and failure.phase == FailurePhase.MID_UPDATE
        )
        with self.recorder.span("engine/optimizer"):
            for w in live:
                budget = len(self.update_order)
                if mid_update:
                    if w.machine_id == failure.machine_id:
                        budget = failure.after_updates
                    else:
                        budget = (survivor_progress or {}).get(
                            w.rank, failure.after_updates)
                w.updated_params = reference_steps(
                    w.optimizer, self.update_order, budget)
                if not mid_update:
                    w.iteration += 1
                    w.updated_params = []
        if mid_update:
            return self._fail(failure, sim_time=t_compute + t_comm)

        self.iteration += 1
        self.clock.advance(t_compute + t_comm, "iteration",
                           iteration=self.iteration)
        return IterationResult(
            iteration=self.iteration - 1,
            loss=float(np.mean(losses)),
            sim_time=t_compute + t_comm,
        )


def rank_order_mean(grads: dict[int, np.ndarray]) -> np.ndarray:
    """The all-reduce written out: the lowest rank's copy, ``+=`` in
    ascending rank, then the mean."""
    ranks = sorted(grads)
    total = np.array(grads[ranks[0]], copy=True)
    for rank in ranks[1:]:
        total += grads[rank]
    return total / len(ranks)


class EagerFSDPEngine(FSDPEngine):
    """FSDP with the per-parameter path: every worker's gradients zeroed on
    their own, one rank-order reduce per parameter handed to its owner,
    one :func:`reference_step` per owned parameter."""

    def _seed_grads(self, live) -> None:
        for w in live:
            for p in w._params.values():
                if p.requires_grad:
                    p.grad = np.zeros_like(p.data)

    def _reduce(self, live) -> int:
        self.group.check_members(w.rank for w in live)
        nbytes = 0
        for name, owner in self.plan.owner.items():
            reduced = rank_order_mean({w.rank: w._params[name].grad
                                       for w in live})
            self.workers[owner]._params[name].grad = reduced
            nbytes += int(reduced.nbytes)
        return nbytes

    def _step_owner(self, w, owned, count) -> list[str]:
        return reference_steps(w.optimizer, owned, count)


def eager_stage_step(stage) -> None:
    """``PipelineStage.step`` over :func:`reference_steps`."""
    reference_steps(stage.optimizer)
    stage.iteration += 1
    stage.updated_this_iteration = True


@contextlib.contextmanager
def eager_pipeline_steps():
    """Every pipeline stage, rebuilt ones included, steps per parameter
    while the context is open."""
    real = PipelineStage.step
    PipelineStage.step = eager_stage_step
    try:
        yield
    finally:
        PipelineStage.step = real
