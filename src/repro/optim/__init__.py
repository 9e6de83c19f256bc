"""Optimizers with invertible updates (update-undo, paper Section 4).

Every optimizer has one update kernel, run over a flat arena by
``step_flat`` — a wait-free crash after ``k`` parameters is
``step_flat(count=k)`` — and, where Table 1 permits, ``undo`` /
``undo_param`` that exactly inverts the latest update using the cached
gradient.  The per-parameter reference the kernels are checked against
lives in ``tests/optim_oracle.py``.
"""

from repro.optim.adam import Adam, AdamW
from repro.optim.amsgrad import AMSGrad
from repro.optim.base import Optimizer
from repro.optim.factory import (
    OPTIMIZER_FAMILIES,
    OPTIMIZER_TABLE1_BY_CLASS,
    OPTIMIZER_TABLE1_NAMES,
    make_optimizer,
)
from repro.optim.lamb import LAMB
from repro.optim.ops import (
    OPERATORS,
    OPTIMIZER_OPERATORS,
    OperatorInfo,
    optimizer_invertible,
    table1_rows,
)
from repro.optim.sgd import SGD, SGDMomentum

__all__ = [
    "Optimizer",
    "SGD",
    "SGDMomentum",
    "Adam",
    "AdamW",
    "LAMB",
    "AMSGrad",
    "OperatorInfo",
    "OPERATORS",
    "OPTIMIZER_OPERATORS",
    "OPTIMIZER_FAMILIES",
    "OPTIMIZER_TABLE1_NAMES",
    "OPTIMIZER_TABLE1_BY_CLASS",
    "make_optimizer",
    "optimizer_invertible",
    "table1_rows",
]
