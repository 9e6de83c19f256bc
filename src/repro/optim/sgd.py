"""SGD and SGD-with-momentum with exact undo (paper Algorithms 1-4)."""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.module import Module, Parameter
from repro.optim.base import Optimizer

__all__ = ["SGD", "SGDMomentum"]


class SGD(Optimizer):
    """Plain SGD with decoupled-into-gradient weight decay.

    Update (Algorithm 3):  ``x_{t+1} = x_t - lr * (g_t + wd * x_t)``
    Undo   (Algorithm 4):  ``x_t = (x_{t+1} + lr * g_t) / (1 - lr * wd)``
    """

    def __init__(
        self,
        params: Module | Iterable[tuple[str, Parameter]],
        lr: float = 0.01,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        if lr * weight_decay >= 1.0:
            raise ConfigurationError(
                "lr * weight_decay >= 1 makes the SGD update non-invertible"
            )
        self.weight_decay = float(weight_decay)

    def _step_flat(self, p, grad, slots, w, _, t) -> None:
        # the update rule's IEEE ops, chained through a scratch vector
        np.multiply(p, self.weight_decay, out=w)
        w += grad  # g + wd * x
        w *= self.lr
        p -= w

    def _undo(self, name: str, param: Parameter, grad: np.ndarray) -> None:
        lr = self.undo_journal[name]["lr"]
        param.data = (param.data + lr * grad) / (1.0 - lr * self.weight_decay)


class SGDMomentum(Optimizer):
    """SGD with momentum (Algorithm 1) and its inverse (Algorithm 2).

    Update::

        m_t     = mu * m_{t-1} + (1 - tau) * (g_t + wd * x_t)
        x_{t+1} = x_t - lr * m_t

    Undo::

        x_t     = x_{t+1} + lr * m_t
        m_{t-1} = (m_t - (1 - tau) * (g_t + wd * x_t)) / mu

    With ``mu == 0`` the previous momentum is unrecoverable but also unused
    (it is multiplied by ``mu`` in the next step), so undo resets it to zero.
    """

    flat_slots = ("momentum",)

    def __init__(
        self,
        params: Module | Iterable[tuple[str, Parameter]],
        lr: float = 0.01,
        momentum: float = 0.9,
        dampening: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        if not 0.0 <= momentum <= 1.0:
            raise ConfigurationError(f"momentum must be in [0, 1], got {momentum}")
        if not 0.0 <= dampening <= 1.0:
            raise ConfigurationError(f"dampening must be in [0, 1], got {dampening}")
        self.momentum = float(momentum)
        self.dampening = float(dampening)
        self.weight_decay = float(weight_decay)

    def _step_flat(self, p, grad, slots, w, _, t) -> None:
        # the update rule's IEEE ops, chained through a scratch vector
        m = slots["momentum"]
        np.multiply(p, self.weight_decay, out=w)
        w += grad  # g + wd * x
        m *= self.momentum
        w *= 1.0 - self.dampening
        m += w
        np.multiply(m, self.lr, out=w)
        p -= w

    def _undo(self, name: str, param: Parameter, grad: np.ndarray) -> None:
        lr = self.undo_journal[name]["lr"]
        m = self.state[name]["momentum"]
        # x_t = x_{t+1} + lr * m_t
        param.data += lr * m
        g = grad + self.weight_decay * param.data
        if self.momentum == 0.0:
            m[...] = 0.0
        else:
            m -= (1.0 - self.dampening) * g
            m /= self.momentum
