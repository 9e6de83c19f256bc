"""Optimizer construction by family name.

The declarative experiment surface (:mod:`repro.api`) and the fleet job
specs (:mod:`repro.jobs`) both name optimizers with strings; this module
is the single mapping from those names to classes, plus the bridge to the
Table-1 operator universe that decides update-undo invertibility (and
therefore strategy selection, paper Sections 3 and 4).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.optim.adam import Adam, AdamW
from repro.optim.amsgrad import AMSGrad
from repro.optim.base import Optimizer
from repro.optim.lamb import LAMB
from repro.optim.sgd import SGD, SGDMomentum

__all__ = [
    "OPTIMIZER_FAMILIES",
    "OPTIMIZER_TABLE1_NAMES",
    "OPTIMIZER_TABLE1_BY_CLASS",
    "make_optimizer",
]

#: family name -> optimizer class
OPTIMIZER_FAMILIES: dict[str, type[Optimizer]] = {
    "sgd": SGD,
    "sgd_momentum": SGDMomentum,
    "adam": Adam,
    "adamw": AdamW,
    "lamb": LAMB,
    "amsgrad": AMSGrad,
}

#: family name -> Table 1 operator-universe row (both SGD variants use
#: the same ew_add/scalar_mul operator set)
OPTIMIZER_TABLE1_NAMES: dict[str, str] = {
    "sgd": "SGD",
    "sgd_momentum": "SGD",
    "adam": "Adam",
    "adamw": "AdamW",
    "lamb": "LAMB",
    "amsgrad": "AMSGrad",
}

#: optimizer class name (how a published ``Workload`` names its optimizer)
#: -> Table 1 operator-universe row
OPTIMIZER_TABLE1_BY_CLASS: dict[str, str] = {
    cls.__name__: OPTIMIZER_TABLE1_NAMES[family]
    for family, cls in OPTIMIZER_FAMILIES.items()
}


def make_optimizer(
    family: str,
    params,
    lr: float | None = None,
    momentum: float = 0.9,
) -> Optimizer:
    """Build an optimizer by family name.

    ``params`` is whatever the optimizer class accepts (a module or a
    named-parameter iterable).  ``lr=None`` keeps the class default;
    ``momentum`` only applies to ``sgd_momentum``.
    """
    try:
        cls = OPTIMIZER_FAMILIES[family]
    except KeyError:
        raise ConfigurationError(
            f"unknown optimizer family {family!r}; known: "
            f"{sorted(OPTIMIZER_FAMILIES)}"
        ) from None
    kwargs: dict = {}
    if lr is not None:
        kwargs["lr"] = lr
    if family == "sgd_momentum":
        kwargs["momentum"] = momentum
    return cls(params, **kwargs)
