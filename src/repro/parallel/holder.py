"""Where a worker runs, and the model state it holds.

A :class:`StateHolder` (a DP worker, a pipeline stage) holds a model and
its optimizer — the paper's "parameters and optimizer states" — keyed
``model/<parameter>`` and ``optim/<optimizer key>``: the one place those
prefixes are built and parsed.  Every worker (:class:`Placed`) points
its model's dropout masks at the micro-batch it runs
(:meth:`Placed.seek_masks`).
"""

from __future__ import annotations

import functools
from collections.abc import Mapping

import numpy as np

from repro.cluster.device import Device
from repro.nn.activations import Dropout
from repro.nn.module import Module
from repro.optim.base import Optimizer

__all__ = ["Placed", "StateHolder"]

_MODEL, _OPTIM = "model/", "optim/"


class Placed:
    """A worker on ``self.device`` that runs ``self.model``: alive while
    its machine is."""

    device: Device
    model: Module

    @property
    def alive(self) -> bool:
        return self.device.alive

    @property
    def machine_id(self) -> int:
        return self.device.machine.machine_id

    def seek_masks(self, index: int) -> None:
        """Point every :class:`~repro.nn.Dropout` of the model at mask
        ``index`` — ``iteration * m + microbatch`` for ``m`` micro-batches
        per iteration — before the forward of that micro-batch, live or
        replayed.  A mask is then a function of the layer's stream, the
        iteration and the micro-batch alone, not of how many forwards this
        model ran before: a replay, a restored worker and a retried
        iteration draw the failure-free run's masks."""
        for layer in self._dropouts:
            layer.counter = index

    @functools.cached_property
    def _dropouts(self) -> list[Dropout]:
        return [m for m in self.model.modules() if isinstance(m, Dropout)]


class StateHolder(Placed):
    """``model`` + ``optimizer``: what a checkpoint saves, a restore loads."""

    optimizer: Optimizer

    def full_state(self) -> dict[str, np.ndarray]:
        """Model + optimizer state, copied."""
        state = {_MODEL + k: v for k, v in self.model.state_dict().items()}
        state.update(
            {_OPTIM + k: v for k, v in self.optimizer.state_dict().items()})
        return state

    def load_full_state(self, state: Mapping[str, np.ndarray],
                        order: list[str] | None = None) -> None:
        """Load ``state`` (a :meth:`full_state`) into private copies — or,
        given the arena layout ``order``, on into this holder's own flat
        arena, its slot buffers zeroed first (the kernel creates a slot
        the state lacks over zeros).  Both halves are checked before
        either loads, so nothing changes if loading raises."""
        model = {k[len(_MODEL):]: v for k, v in state.items()
                 if k.startswith(_MODEL)}
        optim = {k[len(_OPTIM):]: v for k, v in state.items()
                 if k.startswith(_OPTIM)}
        self.model.check_state_dict(model)
        self.optimizer.check_state_dict(optim)
        self.model.load_state_dict(model)
        self.optimizer.load_state_dict(optim)
        if order is not None:
            for buf in self.optimizer.flat_arena(order).slots.values():
                buf.zero()
            self.optimizer.bind_flat(order)

    def dirty_full_state_keys(self) -> set[str]:
        """Keys of :meth:`full_state` changed since the last checkpoint.

        Optimizer-tracked parameters come from its dirty report; parameters
        the optimizer does not manage (``requires_grad=False`` leaves such
        as batch-norm running statistics, which mutate silently during the
        forward pass) are conservatively always reported dirty.
        """
        keys = {_OPTIM + k for k in self.optimizer.dirty_state_keys()}
        keys.update(_MODEL + name for name in self.optimizer.dirty_params)
        keys.update(
            _MODEL + name
            for name, _ in self.model.named_parameters()
            if name not in self.optimizer.params
        )
        return keys

    def clear_dirty(self) -> None:
        self.optimizer.clear_dirty()

    def state_nbytes(self) -> int:
        """:meth:`full_state`'s byte count, read off the leaves in place."""
        return self.model.state_nbytes() + self.optimizer.state_nbytes()
