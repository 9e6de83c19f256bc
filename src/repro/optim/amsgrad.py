"""AMSGrad — the deliberately non-invertible optimizer (paper Table 1).

AMSGrad keeps ``v_hat_t = max(v_hat_{t-1}, v_t)``.  The element-wise maximum
destroys information (when the max is the old value, ``v_t``'s contribution
is unrecoverable... and when it's the new one, the old is), so update-undo
is *not applicable* and :meth:`undo_param` raises
:class:`~repro.errors.NotInvertibleError`.  Swift falls back to snapshot or
checkpoint-based consistency for such optimizers.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.module import Module, Parameter
from repro.optim.adam import advance_moments, corrected_denominator
from repro.optim.base import Optimizer

__all__ = ["AMSGrad"]


class AMSGrad(Optimizer):
    """Adam variant with a running maximum of the second moment."""

    invertible = False
    flat_slots = ("m", "v", "v_max")

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
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ConfigurationError(f"betas must lie in [0, 1), got {betas}")
        self.beta1, self.beta2 = float(beta1), float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)

    def _step_flat(self, p, grad, slots, g, w, t) -> None:
        # allocation-free, as in Adam._step_flat
        m, v, v_max = slots["m"], slots["v"], slots["v_max"]
        np.multiply(p, self.weight_decay, out=g)
        g += grad  # g = grad + wd * x
        advance_moments(self, m, v, g, w)
        np.maximum(v_max, v, out=v_max)  # the non-invertible EW-max
        np.divide(m, 1.0 - self.beta1**t, out=g)  # m_hat
        g *= self.lr
        corrected_denominator(self, v_max, w, t)
        np.divide(g, w, out=g)
        p -= g

    def _undo(self, name: str, param: Parameter, grad: np.ndarray) -> None:
        raise AssertionError("unreachable: guarded by invertible=False")
