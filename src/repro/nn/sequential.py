"""Sequential container — the canonical model shape for stage partitioning."""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.nn.module import Module

__all__ = ["Sequential"]


class Sequential(Module):
    """Chain of sub-modules executed in order.

    Pipeline partitioning (:mod:`repro.parallel.partition`) slices a
    ``Sequential`` into runs of consecutive layers (model chunks); each
    chunk is itself a ``Sequential``, so chunks compose.
    """

    def __init__(self, layers: Sequence[Module] = ()):
        super().__init__()
        self.layers: list[Module] = []
        for layer in layers:
            self.append(layer)

    def append(self, layer: Module) -> "Sequential":
        idx = len(self.layers)
        self.layers.append(layer)
        self._modules[str(idx)] = layer
        return self

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self) -> Iterator[Module]:
        return iter(self.layers)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return Sequential(self.layers[idx])
        return self.layers[idx]

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out
