"""Adam and AdamW with exact undo (paper Algorithms 5-8)."""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.module import Module, Parameter
from repro.optim.base import Optimizer

__all__ = ["Adam", "AdamW"]


def advance_moments(opt, m, v, g, w) -> None:
    """Fused EMA advance of the Adam-family moments (shared kernel).

    ``m ← b1*m + (1-b1)*g``, ``v ← b2*v + (1-b2)*g²`` over flat spans,
    chained through the scratch vector ``w`` — the single statement of the
    arithmetic Adam, AdamW, AMSGrad, and LAMB kernels all share.
    """
    m *= opt.beta1
    np.multiply(g, 1.0 - opt.beta1, out=w)
    m += w
    np.multiply(g, g, out=w)
    w *= 1.0 - opt.beta2
    v *= opt.beta2
    v += w


def corrected_denominator(opt, v_like, w, t: int) -> None:
    """``w ← sqrt(v_like / (1 - b2^t)) + eps`` — the shared denominator."""
    np.divide(v_like, 1.0 - opt.beta2**t, out=w)
    np.sqrt(w, out=w)
    w += opt.eps


class Adam(Optimizer):
    """Adam with L2 regularization folded into the gradient (Algorithm 5).

    Undo (Algorithm 6) first recovers ``x_t`` from the bias-corrected
    moments, then re-derives ``g'_t = g_t + wd * x_t`` to rewind the moment
    estimates.  ``beta1 == 0`` or ``beta2 == 0`` would make the respective
    moment rewind a division by zero, so they are rejected at construction.
    """

    flat_slots = ("m", "v")

    def __init__(
        self,
        params: Module | Iterable[tuple[str, Parameter]],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        beta1, beta2 = betas
        if not (0.0 < beta1 < 1.0 and 0.0 < beta2 < 1.0):
            raise ConfigurationError(
                f"betas must lie in (0, 1) for an invertible Adam, got {betas}"
            )
        self.beta1, self.beta2 = float(beta1), float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)

    def _direction(self, name: str, t: int) -> np.ndarray:
        """Bias-corrected update direction ``m_hat / (sqrt(v_hat) + eps)``."""
        m = self.state[name]["m"]
        v = self.state[name]["v"]
        m_hat = m / (1.0 - self.beta1**t)
        v_hat = v / (1.0 - self.beta2**t)
        return m_hat / (np.sqrt(v_hat) + self.eps)

    def _step_flat(self, p, grad, slots, g, w, t) -> None:
        # allocation-free: every pass is one IEEE add/multiply/divide of
        # the update rule (commuted operands where convenient — both ops
        # are commutative bit-for-bit), chained through the two scratch
        # vectors instead of fresh temporaries
        m, v = slots["m"], slots["v"]
        np.multiply(p, self.weight_decay, out=g)
        g += grad  # g = grad + wd * x
        advance_moments(self, m, v, g, w)
        np.divide(m, 1.0 - self.beta1**t, out=g)  # m_hat
        corrected_denominator(self, v, w, t)
        np.divide(g, w, out=g)
        g *= self.lr
        p -= g

    def _undo(self, name: str, param: Parameter, grad: np.ndarray) -> None:
        lr = self.undo_journal[name]["lr"]
        t = self.step_counts[name]
        # x_t = x_{t+1} + lr * m_hat / (sqrt(v_hat) + eps)
        param.data += lr * self._direction(name, t)
        g = grad + self.weight_decay * param.data
        m = self.state[name]["m"]
        v = self.state[name]["v"]
        m -= (1.0 - self.beta1) * g
        m /= self.beta1
        v -= (1.0 - self.beta2) * g**2
        v /= self.beta2


class AdamW(Optimizer):
    """AdamW: decoupled weight decay (Algorithm 7) with undo (Algorithm 8).

    Update::

        m_t = b1*m + (1-b1)*g;  v_t = b2*v + (1-b2)*g^2
        x_{t+1} = x_t - lr * (m_hat/(sqrt(v_hat)+eps) + wd * x_t)

    Undo::

        x_t = (x_{t+1} + lr * m_hat/(sqrt(v_hat)+eps)) / (1 - lr*wd)
        m_{t-1} = (m_t - (1-b1)*g)/b1;  v_{t-1} = (v_t - (1-b2)*g^2)/b2
    """

    flat_slots = ("m", "v")

    def __init__(
        self,
        params: Module | Iterable[tuple[str, Parameter]],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ):
        super().__init__(params, lr)
        beta1, beta2 = betas
        if not (0.0 < beta1 < 1.0 and 0.0 < beta2 < 1.0):
            raise ConfigurationError(
                f"betas must lie in (0, 1) for an invertible AdamW, got {betas}"
            )
        if lr * weight_decay >= 1.0:
            raise ConfigurationError(
                "lr * weight_decay >= 1 makes the AdamW update non-invertible"
            )
        self.beta1, self.beta2 = float(beta1), float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)

    def _direction(self, name: str, t: int) -> np.ndarray:
        m = self.state[name]["m"]
        v = self.state[name]["v"]
        m_hat = m / (1.0 - self.beta1**t)
        v_hat = v / (1.0 - self.beta2**t)
        return m_hat / (np.sqrt(v_hat) + self.eps)

    def _step_flat(self, p, grad, slots, a, w, t) -> None:
        # allocation-free, as in Adam._step_flat
        m, v = slots["m"], slots["v"]
        advance_moments(self, m, v, grad, w)
        np.divide(m, 1.0 - self.beta1**t, out=a)  # m_hat
        corrected_denominator(self, v, w, t)
        np.divide(a, w, out=a)  # direction
        np.multiply(p, self.weight_decay, out=w)
        a += w  # direction + wd * x
        a *= self.lr
        p -= a

    def _undo(self, name: str, param: Parameter, grad: np.ndarray) -> None:
        lr = self.undo_journal[name]["lr"]
        t = self.step_counts[name]
        param.data = (param.data + lr * self._direction(name, t)) / (
            1.0 - lr * self.weight_decay
        )
        m = self.state[name]["m"]
        v = self.state[name]["v"]
        m -= (1.0 - self.beta1) * grad
        m /= self.beta1
        v -= (1.0 - self.beta2) * grad**2
        v /= self.beta2
