"""Where a worker runs, and the model state it holds.

A :class:`StateHolder` (a DP worker, a pipeline stage) holds a model and
its optimizer — the paper's "parameters and optimizer states" — keyed
``model/<parameter>`` and ``optim/<optimizer key>``: the one place those
prefixes are built and parsed.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.cluster.device import Device
from repro.nn.module import Module
from repro.optim.base import Optimizer

__all__ = ["Placed", "StateHolder"]

_MODEL, _OPTIM = "model/", "optim/"


class Placed:
    """A worker on ``self.device``: alive while its machine is."""

    device: Device

    @property
    def alive(self) -> bool:
        return self.device.alive

    @property
    def machine_id(self) -> int:
        return self.device.machine.machine_id


class StateHolder(Placed):
    """``model`` + ``optimizer``: what a checkpoint saves, a restore loads."""

    model: Module
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
