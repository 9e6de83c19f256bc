"""LAMB optimizer with scalar-journal undo.

LAMB scales the Adam direction by a layer-wise trust ratio
``phi(||x_t||) / ||r_t||`` — a *non-linear* operator.  As the paper notes
(Section 4): "For the LAMB optimizer, we can additionally save the L2 norm
(a scalar), and recover the previous model state accordingly."  We journal
the trust ratio actually applied at each step (one float per parameter),
which makes the update affine in ``x_t`` and therefore invertible.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.module import Module, Parameter
from repro.optim.adam import advance_moments, corrected_denominator
from repro.optim.base import Optimizer

__all__ = ["LAMB"]


class LAMB(Optimizer):
    """Layer-wise Adaptive Moments for Batch training (You et al., 2020).

    Update::

        m_t = b1*m + (1-b1)*g;  v_t = b2*v + (1-b2)*g^2
        r_t = m_hat/(sqrt(v_hat)+eps) + wd * x_t
        trust = ||x_t|| / ||r_t||       (1 when either norm is 0)
        x_{t+1} = x_t - lr * trust * r_t

    Undo (with journaled ``trust``)::

        a   = m_hat/(sqrt(v_hat)+eps)
        x_t = (x_{t+1} + lr*trust*a) / (1 - lr*trust*wd)
        m/v rewound as in Adam (decay folded into r, not g)
    """

    flat_slots = ("m", "v")

    def __init__(
        self,
        params: Module | Iterable[tuple[str, Parameter]],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-6,
        weight_decay: float = 0.01,
    ):
        super().__init__(params, lr)
        beta1, beta2 = betas
        if not (0.0 < beta1 < 1.0 and 0.0 < beta2 < 1.0):
            raise ConfigurationError(
                f"betas must lie in (0, 1) for an invertible LAMB, got {betas}"
            )
        self.beta1, self.beta2 = float(beta1), float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)

    def _adam_direction(self, name: str, t: int) -> np.ndarray:
        m = self.state[name]["m"]
        v = self.state[name]["v"]
        m_hat = m / (1.0 - self.beta1**t)
        v_hat = v / (1.0 - self.beta2**t)
        return m_hat / (np.sqrt(v_hat) + self.eps)

    def _step_flat(self, arena, gflat, span, names, t) -> None:
        # moments advance fused over the whole span (allocation-free, as
        # in Adam._step_flat); the trust ratio is a per-layer scalar by
        # construction, so only the final scaled subtraction runs per
        # parameter (over that parameter's slice)
        p = arena.params.data[span]
        m = arena.slots["m"].data[span]
        v = arena.slots["v"].data[span]
        r = arena.scratch("a")[span]
        w = arena.scratch("b")[span]
        advance_moments(self, m, v, gflat[span], w)
        np.divide(m, 1.0 - self.beta1**t, out=r)  # m_hat
        corrected_denominator(self, v, w, t)
        np.divide(r, w, out=r)  # adam direction
        np.multiply(p, self.weight_decay, out=w)
        r += w  # r = direction + wd * x
        base = span.start
        locals_ = [
            slice(arena.local_slice(n).start - base,
                  arena.local_slice(n).stop - base)
            for n in names
        ]
        trusts = []
        for name, local in zip(names, locals_):
            x_norm = float(np.linalg.norm(p[local]))
            r_norm = float(np.linalg.norm(r[local]))
            trusts.append(
                x_norm / r_norm if x_norm > 0.0 and r_norm > 0.0 else 1.0
            )
        # guard the whole span before touching any parameter or journal, so
        # a rejected step never leaves half the span updated with stale
        # undo bookkeeping
        if any(self.lr * t_ * self.weight_decay >= 1.0 for t_ in trusts):
            raise ConfigurationError(
                "lr * trust * weight_decay >= 1 makes this LAMB step "
                "non-invertible"
            )
        for name, local, trust in zip(names, locals_, trusts):
            self.undo_journal[name]["trust"] = trust
            r_i = r[local]
            r_i *= self.lr * trust
            p[local] -= r_i

    def _undo(self, name: str, param: Parameter, grad: np.ndarray) -> None:
        journal = self.undo_journal[name]
        lr = journal["lr"]
        trust = journal["trust"]
        t = self.step_counts[name]
        a = self._adam_direction(name, t)
        param.data = (param.data + lr * trust * a) / (
            1.0 - lr * trust * self.weight_decay
        )
        m = self.state[name]["m"]
        v = self.state[name]["v"]
        m -= (1.0 - self.beta1) * grad
        m /= self.beta1
        v -= (1.0 - self.beta2) * grad**2
        v /= self.beta2
