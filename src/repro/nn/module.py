"""Minimal layer-wise neural-network framework on NumPy.

This replaces PyTorch as the substrate the paper builds on.  The design is
deliberately *layer-wise*: every :class:`Module` implements an explicit
``forward`` that caches what its ``backward`` needs, and ``backward`` both
returns the gradient w.r.t. the module input and adds parameter gradients
into ``Parameter.grad`` (a view of a bound flat gradient buffer).

Two properties matter for Swift and are guaranteed here:

* **Determinism** — forward/backward are pure NumPy; the same input always
  produces the same output, which is what makes logging-based replay exact
  (paper Section 5.1 "Consistency").
* **Layer-granular state** — parameters are named and updated individually,
  which is what exposes the crash-consistency window of wait-free updates
  (paper Section 2.3, Figure 4) and what update-undo operates on.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from functools import cached_property

import numpy as np

from repro.errors import ShapeError

__all__ = ["Parameter", "Module"]


class Parameter:
    """A named trainable tensor with an associated gradient slot.

    ``grad`` holds the *latest* gradient ``g_t``.  Keeping one gradient
    version around is exactly the caching behaviour Swift relies on for
    update-undo (Section 4: "It only needs to cache the latest gradients
    g_t, a common practice in mainstream DL frameworks").  It is a view of
    an engine's flat gradient buffer, bound by
    :meth:`FlatBuffer.bind_grads <repro.utils.flat.FlatBuffer.bind_grads>`
    and zeroed by its owner; backward only adds into it.
    """

    __slots__ = ("name", "data", "grad", "requires_grad")

    def __init__(self, data: np.ndarray, name: str = "", requires_grad: bool = True):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.name = name
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def accumulate_grad(self, grad: np.ndarray) -> None:
        if grad.shape != self.data.shape:
            raise ShapeError(
                f"gradient shape {grad.shape} != parameter shape {self.data.shape}"
                f" for {self.name!r}"
            )
        if self.grad is None:
            raise ShapeError(
                f"parameter {self.name!r} has no gradient buffer bound "
                "(FlatBuffer.bind_grads)"
            )
        self.grad += grad

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"


class Module:
    """Base class for all layers and models.

    Subclasses register parameters via :meth:`register_parameter` and
    sub-modules via attribute assignment; traversal and state dicts come
    for free.
    """

    def __init__(self) -> None:
        self._parameters: dict[str, Parameter] = {}
        self._modules: dict[str, Module] = {}
        self.training = True

    # -- registration -----------------------------------------------------
    def register_parameter(self, name: str, param: Parameter) -> Parameter:
        param.name = name
        self._parameters[name] = param
        return param

    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    # -- traversal ---------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def num_parameters(self) -> int:
        return int(sum(p.data.size for p in self.parameters()))

    def state_nbytes(self) -> int:
        return int(sum(p.nbytes for p in self.parameters()))

    # -- state dict ---------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of all parameters, keyed by qualified name."""
        return {name: np.array(p.data, copy=True) for name, p in self.named_parameters()}

    def check_state_dict(self, state: Mapping[str, np.ndarray]) -> None:
        """Raise :class:`ShapeError` unless :meth:`load_state_dict` takes
        ``state``: the same names, each with its leaf's shape."""
        params = dict(self.named_parameters())
        missing = params.keys() - state.keys()
        extra = state.keys() - params.keys()
        if missing or extra:
            raise ShapeError(
                f"state dict mismatch: missing={sorted(missing)} extra={sorted(extra)}"
            )
        for name, param in params.items():
            if np.shape(state[name]) != param.data.shape:
                raise ShapeError(f"shape mismatch for {name!r}: "
                                 f"{np.shape(state[name])} != {param.data.shape}")

    def load_state_dict(self, state: Mapping[str, np.ndarray]) -> None:
        """Rebind every leaf to a copy of ``state``'s; checked first."""
        self.check_state_dict(state)
        for name, param in self.named_parameters():
            param.data = np.array(state[name], dtype=np.float64, copy=True)

    # -- modes ---------------------------------------------------------------
    def train(self) -> "Module":
        for m in self.modules():
            m.training = True
        return self

    def eval(self) -> "Module":
        for m in self.modules():
            m.training = False
        return self

    # -- compute ---------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backprop through the module; returns gradient w.r.t. the input.

        Must be called after :meth:`forward` on the same input (each layer
        caches its forward activations).
        """
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # -- per-call caches -------------------------------------------------------
    @cached_property
    def cache_slots(self) -> tuple[tuple[dict, str], ...]:
        """``(owner.__dict__, name)`` of each per-call cache in :meth:`modules`:
        the private attributes ``forward`` sets for ``backward`` (``_x``,
        ``_mask``, ``_cache``, ...).  Resolved once, on first use."""
        return tuple(
            (vars(m), name) for m in self.modules() for name in vars(m)
            if name[0] == "_" and name not in ("_parameters", "_modules"))

    def stash_caches(self) -> list:
        """What the latest :meth:`forward` left for :meth:`backward`."""
        return [owner[name] for owner, name in self.cache_slots]

    def restore_caches(self, stash: list) -> None:
        """Put a :meth:`stash_caches` back for the next :meth:`backward`."""
        for (owner, name), value in zip(self.cache_slots, stash):
            owner[name] = value
