"""Optimizer base class with an invertible-update contract.

Swift's update-undo (paper Section 4) relies on optimizers being
*mathematically invertible*: for the update ``f`` there exists ``f⁻¹`` that
recovers ``(x_t, state_{t-1})`` from ``(x_{t+1}, state_t, g_t)``.  Every
optimizer here therefore implements one fused update kernel,
:meth:`_step_flat`, and the per-parameter :meth:`undo_param`.  The undo
path uses the gradient still cached in ``Parameter.grad`` — exactly the
"cache the latest gradients" observation the paper makes about mainstream
DL frameworks.

Updates run over a flat arena laid out in update order, so engines model
wait-free layer-wise updates (Section 2.3) with a prefix: a crash after
``k`` parameters is ``step_flat(count=k)``, and leaves the model in the
inconsistent state that update-undo then repairs.  The per-parameter
restatement of every rule, which the fused kernels are checked against
bit for bit, lives with the tests (``tests/optim_oracle.py``).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

from repro.errors import NotInvertibleError, ShapeError
from repro.nn.module import Module, Parameter
from repro.utils.flat import FlatArena

__all__ = ["Optimizer"]


class Optimizer:
    """Base optimizer over named parameters.

    Parameters
    ----------
    params:
        A :class:`~repro.nn.Module` or an iterable of ``(name, Parameter)``
        pairs.  Parameters with ``requires_grad=False`` (e.g. batch-norm
        running statistics) are excluded from updates.
    lr:
        Learning rate.  May be changed between iterations; the value used at
        each step is journaled per-parameter so undo applies the right one.
    """

    #: Whether :meth:`undo_param` is implemented (Table 1).
    invertible: bool = True

    #: slot tensor names :meth:`_step_flat` advances (momentum, moments,
    #: ...): the flat arena hosts one buffer per name
    flat_slots: tuple[str, ...] = ()

    def __init__(self, params: Module | Iterable[tuple[str, Parameter]], lr: float):
        if isinstance(params, Module):
            named = list(params.named_parameters())
        else:
            named = list(params)
        self.params: dict[str, Parameter] = {
            name: p for name, p in named if p.requires_grad
        }
        if not self.params:
            raise ShapeError("optimizer constructed with no trainable parameters")
        self.lr = float(lr)
        #: per-parameter update count (the ``t`` in the algorithms)
        self.step_counts: dict[str, int] = {name: 0 for name in self.params}
        #: per-parameter slot tensors (momentum, moments, ...)
        self.state: dict[str, dict[str, np.ndarray]] = {
            name: {} for name in self.params
        }
        #: per-parameter journal of scalars needed by undo (lr used, trust
        #: ratios, ...) — only the *latest* step is kept, matching the
        #: single-gradient-version memory budget of Section 4.
        self.undo_journal: dict[str, dict[str, float]] = {
            name: {} for name in self.params
        }
        #: parameters whose state changed since the last checkpoint — the
        #: dirty-key report incremental checkpointing persists deltas from.
        #: Everything is dirty before the first full checkpoint.
        self.dirty_params: set[str] = set(self.params)
        #: flat arena every update runs over (built on first use)
        self._arena: FlatArena | None = None

    # -- single-parameter undo (implemented by subclasses) -----------------
    def _undo(self, name: str, param: Parameter, grad: np.ndarray) -> None:
        raise NotImplementedError

    # -- public API ----------------------------------------------------------
    def undo_param(self, name: str) -> None:
        """Invert the most recent update of one parameter.

        Requires ``Parameter.grad`` to still hold the gradient ``g_t`` used
        by that update.
        """
        if not self.invertible:
            raise NotInvertibleError(
                f"{type(self).__name__} uses non-invertible operators and "
                "cannot undo updates (paper Table 1)"
            )
        param = self.params[name]
        if param.grad is None:
            raise ShapeError(f"parameter {name!r} has no cached gradient to undo with")
        if self.step_counts[name] <= 0:
            raise NotInvertibleError(f"parameter {name!r} has no update to undo")
        self._undo(name, param, param.grad)
        self.step_counts[name] -= 1
        self.dirty_params.add(name)

    def undo(self, names: Iterable[str] | None = None) -> list[str]:
        """Undo the latest update of the given parameters (default: all)."""
        names = list(names) if names is not None else list(self.params)
        for name in names:
            self.undo_param(name)
        return names

    # -- the flat-buffer update path -------------------------------------------
    def flat_arena(self, order: Iterable[str] | None = None) -> FlatArena:
        """The optimizer's flat arena, (re)built when the layout changes."""
        order = list(order) if order is not None else list(self.params)
        unknown = [n for n in order if n not in self.params]
        if unknown:
            raise ShapeError(f"unknown parameters in flat order: {unknown}")
        if self._arena is None or self._arena.order != order:
            shapes = {n: self.params[n].data.shape for n in order}
            self._arena = FlatArena(shapes, order, self.flat_slots)
        return self._arena

    def take_arena(self, donor: Optimizer) -> None:
        """Swap arenas with a retiring optimizer whose *live* arena this
        one's leaves follow as frozen views: rebind them writable, no copy."""
        self._arena, donor._arena = donor._arena, self._arena
        pviews = self._arena.params.views()
        sviews = {s: b.views() for s, b in self._arena.slots.items()}
        for name in self._arena.order:
            self.params[name].data = pviews[name]
            for slot in self.state[name].keys() & sviews.keys():
                self.state[name][slot] = sviews[slot][name]

    def bind_flat(self, order: Iterable[str] | None = None) -> FlatArena:
        """Adopt parameters (and existing slots) into the flat arena.

        Leaves already backed by the arena are left alone (an ``is`` check
        per leaf); detached leaves — fresh construction, ``load_state_dict``
        rebinds, out-of-place undo rebinds, or copy-on-write shares of
        another replica's arena — are copied in and rebound as writable
        arena views.  Idempotent and cheap once bound.
        """
        arena = self.flat_arena(order)
        pviews = arena.params.views()
        for name in arena.order:
            param = self.params[name]
            if param.data is not pviews[name]:
                pviews[name][...] = param.data
                param.data = pviews[name]
        for slot, buf in arena.slots.items():
            sviews = buf.views()
            for name in arena.order:
                cur = self.state[name].get(slot)
                if cur is not None and cur is not sviews[name]:
                    sviews[name][...] = cur
                    self.state[name][slot] = sviews[name]
        return arena

    def flat_bound(self, order: Iterable[str] | None = None) -> bool:
        """True iff every leaf is currently a writable view of the arena."""
        arena = self._arena
        if arena is None:
            return False
        if order is not None and arena.order != list(order):
            return False
        pviews = arena.params.views()
        if any(self.params[n].data is not pviews[n] for n in arena.order):
            return False
        for slot, buf in arena.slots.items():
            sviews = buf.views()
            for name in arena.order:
                cur = self.state[name].get(slot)
                if cur is not None and cur is not sviews[name]:
                    return False
        return True

    def step_flat(
        self,
        count: int | None = None,
        order: Iterable[str] | None = None,
        grads: np.ndarray | None = None,
    ) -> list[str]:
        """Update the first ``count`` arena parameters: the one update path.

        ``count`` is the wait-free update budget — a MID_UPDATE crash after
        ``k`` parameters is exactly ``step_flat(count=k)``.  The kernel runs
        over contiguous spans; the per-parameter reference in
        ``tests/optim_oracle.py`` performs the same elementwise arithmetic
        with the same scalars, one parameter at a time, and the two agree
        bit for bit.

        ``grads`` optionally supplies an external flat gradient vector in
        arena layout (e.g. the fused all-reduce output), skipping the
        per-parameter gather entirely.
        """
        arena = self.bind_flat(order)
        names = arena.order if count is None else arena.order[: max(count, 0)]
        if not names:
            return []
        if grads is None:
            gflat = arena.grads.data
            gviews = arena.grads.views()
            for name in names:
                grad = self.params[name].grad
                if grad is None:
                    raise ShapeError(f"parameter {name!r} has no gradient")
                if grad is not gviews[name] and grad.base is not gflat:
                    gviews[name][...] = grad
        else:
            if grads.size != arena.params.size:
                raise ShapeError(
                    f"flat gradient size {grads.size} != arena size "
                    f"{arena.params.size}"
                )
            gflat = grads
        # fuse over maximal runs of uniform step count (bias-correction
        # scalars depend on t; runs collapse to one span in steady state);
        # bookkeeping lands per run, so a kernel raising mid-call never
        # leaves an earlier successful run without its counts/journal
        start = 0
        while start < len(names):
            t = self.step_counts[names[start]] + 1
            stop = start + 1
            while stop < len(names) and self.step_counts[names[stop]] + 1 == t:
                stop += 1
            run = names[start:stop]
            span = slice(
                arena.params.slices[run[0]].start,
                arena.params.slices[run[-1]].stop,
            )
            # a slot is created, over zeros, only for parameters actually
            # stepped (crash states keep partially created slots); bind_flat
            # left every existing slot in the arena, so a missing one is
            # zeroed first: a retained arena's old values never leak in
            for slot, buf in arena.slots.items():
                sviews = buf.views()
                for name in run:
                    if self.state[name].get(slot) is not sviews[name]:
                        sviews[name][...] = 0.0
                        self.state[name][slot] = sviews[name]
            self._step_flat(arena, gflat, span, run, t)
            for name in run:
                self.step_counts[name] += 1
                self.undo_journal[name]["lr"] = self.lr
            self.dirty_params.update(run)
            start = stop
        return list(names)

    def _step_flat(
        self,
        arena: FlatArena,
        gflat: np.ndarray,
        span: slice,
        names: list[str],
        t: int,
    ) -> None:
        """Vectorized update of ``arena.params.data[span]`` (subclasses).

        ``gflat`` is the flat gradient source (arena layout), ``names`` the
        parameters the span covers, ``t`` their common post-increment step
        count.  A refused step raises before touching a parameter.
        """
        raise NotImplementedError

    # -- checkpointable state --------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Flatten optimizer state (slots + step counts) into arrays.

        Together with the model state dict this forms the *model state* the
        paper protects: "parameters and optimizer states".
        """
        out: dict[str, np.ndarray] = {}
        for name, slots in self.state.items():
            for slot, arr in slots.items():
                out[f"{name}::{slot}"] = np.array(arr, copy=True)
            out[f"{name}::step"] = np.array(self.step_counts[name], dtype=np.int64)
        return out

    def state_nbytes(self) -> int:
        """:meth:`state_dict`'s byte count, read off the slots in place
        (each step count is one int64)."""
        return int(sum(arr.nbytes for slots in self.state.values()
                       for arr in slots.values()) + 8 * len(self.state))

    def check_state_dict(self, state: Mapping[str, np.ndarray]) -> None:
        """Raise :class:`ShapeError` unless :meth:`load_state_dict` takes
        ``state``: every key names a parameter, and a flat slot has its
        parameter's shape."""
        for key, arr in state.items():
            name, slot = key.rsplit("::", 1)
            if name not in self.params:
                raise ShapeError(
                    f"unknown parameter {name!r} in optimizer state")
            shape = self.params[name].data.shape
            if slot in self.flat_slots and np.shape(arr) != shape:
                raise ShapeError(f"shape mismatch for {key!r}: "
                                 f"{np.shape(arr)} != {shape}")

    def load_state_dict(self, state: Mapping[str, np.ndarray]) -> None:
        """Load a :meth:`state_dict`: each parameter it names keeps only
        the slots it holds.  Checked before anything changes."""
        self.check_state_dict(state)
        for name in {key.rsplit("::", 1)[0] for key in state}:
            self.state[name] = {}
        for key, arr in state.items():
            name, slot = key.rsplit("::", 1)
            self.dirty_params.add(name)
            if slot == "step":
                self.step_counts[name] = int(arr)
            else:
                self.state[name][slot] = np.array(arr, dtype=np.float64, copy=True)

    # -- dirty-key reporting (incremental checkpoints) -----------------------
    def dirty_state_keys(self) -> set[str]:
        """State-dict keys changed since :meth:`clear_dirty` was last called.

        Covers both the slot tensors and the step counters of every dirty
        parameter — together with the parameter itself (reported by the
        worker layer) this is the full set of leaves a delta checkpoint
        must persist.
        """
        keys: set[str] = set()
        for name in self.dirty_params:
            keys.update(f"{name}::{slot}" for slot in self.state[name])
            keys.add(f"{name}::step")
        return keys

    def clear_dirty(self) -> None:
        """Reset the dirty report (called after a successful checkpoint)."""
        self.dirty_params = set()
