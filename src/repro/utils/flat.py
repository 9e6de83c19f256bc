"""Flat buffers: the fused training-step substrate.

Per-parameter training loops pay one Python-level NumPy call per parameter
per operation — for a P-parameter model on W data-parallel replicas that is
``O(P * W)`` interpreter round-trips per iteration just for gradient
synchronization and the optimizer update.  A :class:`FlatBuffer` packs all
of a module's trainable parameters (or their gradients, or one optimizer
slot) into a *single* contiguous float64 vector with named slices, so the
same work becomes a handful of fused vector operations:

* every engine owns one gradient buffer per gradient group, laid out in
  its optimizer's update order and zeroed once per iteration;
  :meth:`FlatBuffer.bind_grads` — the one place a ``Parameter.grad`` is
  assigned — points each trainable leaf at its view, so every backward
  contribution adds straight into it (``0.0 + g``, then ``+ g'``) and
  gradient synchronization is one fused pass over the buffer;
* optimizer updates run **vectorized kernels** over the whole arena (or a
  prefix of it) instead of P per-parameter updates, reading that buffer
  as their one gradient source;
* the wait-free/layer-wise update semantics survive because the arena is
  laid out in *update order*: "the first k parameters were updated" is a
  contiguous prefix, so a MID_UPDATE crash budget maps to a fused kernel
  over a prefix slice.

Because every fused operation performs the same elementwise arithmetic, in
the same order, with the same scalars as a per-parameter update, results
are bitwise identical to one — the property the equivalence suite in
``tests/test_flat.py`` and ``benchmarks/bench_step.py`` pins down against
the per-parameter reference in ``tests/optim_oracle.py``.

The one precondition every engine shares: folding several backwards (DP
replicas, FSDP workers) into one buffer equals summing per-backward
buffers in the same order bit for bit only if each backward contributes
to a parameter at most once — a second contribution would re-associate
the sum.  A sum started at +0.0 is never -0.0, so adding ``g`` or
``0.0 + g`` to it gives the same bits; the one element on which a gradient
started at 0.0 differs from one started as a copy of ``g`` is an element
whose whole sum is -0.0 (it reads +0.0 here).

:class:`FlatArena` bundles the buffers one optimizer updates (params, one
buffer per slot tensor) in one object; adoption/sharing policy lives with
the consumers (:class:`repro.optim.base.Optimizer`,
:class:`repro.parallel.data_parallel.DataParallelEngine`).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

__all__ = ["FlatBuffer", "FlatArena"]


class FlatBuffer:
    """One contiguous float64 vector with named, ordered slices.

    Parameters
    ----------
    shapes:
        Name → array shape of every leaf to lay out.
    order:
        Layout order of the names (default: ``shapes`` iteration order).
        The order is load-bearing: prefix slices (wait-free update budgets)
        cover the first *k* names in this order.
    """

    __slots__ = ("order", "shapes", "slices", "data", "_views", "_frozen")

    def __init__(
        self,
        shapes: Mapping[str, tuple[int, ...]],
        order: Iterable[str] | None = None,
    ):
        self.order: list[str] = list(order) if order is not None else list(shapes)
        self.shapes: dict[str, tuple[int, ...]] = {
            name: tuple(shapes[name]) for name in self.order
        }
        offset = 0
        self.slices: dict[str, slice] = {}
        for name in self.order:
            size = int(np.prod(self.shapes[name], dtype=np.int64)) if self.shapes[name] else 1
            self.slices[name] = slice(offset, offset + size)
            offset += size
        self.data: np.ndarray = np.zeros(offset, dtype=np.float64)
        self._views: dict[str, np.ndarray] | None = None
        self._frozen: dict[str, np.ndarray] | None = None

    # -- geometry -----------------------------------------------------------
    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    # -- named views ----------------------------------------------------------
    def views(self) -> dict[str, np.ndarray]:
        """Shape-restored writable views into the buffer (cached objects).

        The returned arrays share memory with :attr:`data`; the *same* view
        objects are returned every call, so consumers can test adoption
        with an ``is`` check instead of comparing buffer pointers.
        """
        if self._views is None:
            self._views = {
                name: self.data[sl].reshape(self.shapes[name])
                for name, sl in self.slices.items()
            }
        return self._views

    def frozen_views(self) -> dict[str, np.ndarray]:
        """Read-only counterparts of :meth:`views` (cached objects).

        These are what a canonical replica hands to its copy-on-write
        followers: the followers see every in-place arena update for free,
        while their own accidental in-place writes raise ``ValueError``
        instead of corrupting the shared buffer.
        """
        if self._frozen is None:
            frozen = {}
            for name, sl in self.slices.items():
                v = self.data[sl].reshape(self.shapes[name])
                v.setflags(write=False)
                frozen[name] = v
            self._frozen = frozen
        return self._frozen

    def bind_grads(self, params: Mapping[str, object],
                   frozen: bool = False) -> None:
        """Point each named parameter's ``grad`` at its view of this buffer
        (a read-only one with ``frozen``): the one place a gradient is
        bound.  Backward then adds every contribution into the buffer."""
        views = self.frozen_views() if frozen else self.views()
        for name, view in views.items():
            params[name].grad = view

    # -- bulk movement ---------------------------------------------------------
    def zero(self) -> None:
        self.data[:] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FlatBuffer(names={len(self.order)}, size={self.size})"


class FlatArena:
    """Params + per-slot flat buffers for one optimizer.

    All buffers share one layout (``shapes`` in ``order``), as does the
    gradient buffer the optimizer steps from, so a span ``[lo:hi)``
    addresses the same parameters in every one — which is what lets an
    optimizer kernel update parameters, read gradients, and advance slot
    tensors with aligned fused vector operations.
    """

    __slots__ = ("params", "slots", "_scratch")

    def __init__(
        self,
        shapes: Mapping[str, tuple[int, ...]],
        order: Iterable[str] | None = None,
        slot_names: Iterable[str] = (),
    ):
        self.params = FlatBuffer(shapes, order)
        self.slots: dict[str, FlatBuffer] = {
            slot: FlatBuffer(shapes, self.params.order) for slot in slot_names
        }
        self._scratch: dict[str, np.ndarray] = {}

    @property
    def order(self) -> list[str]:
        return self.params.order

    def local_slice(self, name: str) -> slice:
        return self.params.slices[name]

    def scratch(self, name: str) -> np.ndarray:
        """A reusable arena-sized work vector (allocated once per name).

        A kernel that needs a whole run at once (LAMB's) chains ``out=``
        ufuncs through these instead of allocating a fresh temporary per
        elementwise pass — the arithmetic (and thus the bits) is
        unchanged, only the allocator traffic goes away.  The elementwise
        kernels run block by block through block-sized scratch instead
        (:meth:`repro.optim.base.Optimizer._step_run`).
        """
        buf = self._scratch.get(name)
        if buf is None:
            buf = np.empty(self.params.size, dtype=np.float64)
            self._scratch[name] = buf
        return buf
