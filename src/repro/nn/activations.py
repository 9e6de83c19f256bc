"""Element-wise activation layers (stateless apart from forward caches)."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.utils.seeding import RngStream

__all__ = ["ReLU", "GELU", "Dropout", "Identity"]

_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)


class Identity(Module):
    """Pass-through layer (useful as a stage placeholder)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out


class ReLU(Module):
    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._mask is not None
        return np.where(self._mask, grad_out, 0.0)


class GELU(Module):
    """Gaussian error linear unit, tanh approximation (as in BERT/ViT)."""

    def __init__(self) -> None:
        super().__init__()
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        inner = _SQRT_2_OVER_PI * (x + 0.044715 * x**3)
        return 0.5 * x * (1.0 + np.tanh(inner))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._x is not None
        x = self._x
        inner = _SQRT_2_OVER_PI * (x + 0.044715 * x**3)
        t = np.tanh(inner)
        d_inner = _SQRT_2_OVER_PI * (1.0 + 3 * 0.044715 * x**2)
        grad = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * d_inner
        return grad_out * grad


class Dropout(Module):
    """Deterministic dropout: masks are drawn from a named RNG stream.

    Determinism matters for logging-based replay — a recovered worker must
    draw the *same* dropout masks as the pre-failure execution, so a
    forward draws mask number ``counter`` from the layer's own stream
    (analogous to the cuDNN-determinism measures of paper Section 6) and
    advances ``counter`` by one.  A training engine sets ``counter`` to
    ``iteration * m + microbatch`` before each forward, live or replayed
    (:meth:`repro.parallel.holder.Placed.seek_masks`), which is the value
    a failure-free run's forwards reach anyway.
    """

    def __init__(self, p: float = 0.1, rng: RngStream | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng or RngStream(0, "dropout")
        self.counter = 0  # the next forward's mask; see the class doc
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        gen = self.rng.generator("mask", self.counter)
        self.counter += 1
        self._mask = (gen.random(x.shape) >= self.p) / (1.0 - self.p)
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_out
        return grad_out * self._mask
