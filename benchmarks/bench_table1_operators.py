"""Table 1: operators used in five representative optimizers.

Regenerates the operator/invertibility matrix and verifies it empirically:
every optimizer the table marks invertible round-trips a step+undo on a
real model; AMSGrad refuses.
"""

import numpy as np
import pytest

from _common import emit, fmt_table
from repro.errors import NotInvertibleError
from repro.models import make_mlp
from repro.nn import CrossEntropyLoss
from repro.optim import (
    AMSGrad,
    Adam,
    AdamW,
    LAMB,
    SGD,
    SGDMomentum,
    optimizer_invertible,
    table1_rows,
)

OPTIMIZERS = {
    "SGD": (SGDMomentum, dict(lr=0.05, momentum=0.9)),
    "Adam": (Adam, dict(lr=0.01)),
    "AdamW": (AdamW, dict(lr=0.01, weight_decay=0.01)),
    "LAMB": (LAMB, dict(lr=0.01, weight_decay=0.01)),
    "AMSGrad": (AMSGrad, dict(lr=0.01)),
}


def empirical_invertibility() -> dict[str, bool]:
    """step + undo on a live model; report whether state round-trips."""
    results = {}
    for name, (cls, kw) in OPTIMIZERS.items():
        model = make_mlp(6, 10, 3, seed=1)
        opt = cls(model, **kw)
        x0 = model.state_dict()
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 6))
        y = rng.integers(0, 3, 8)
        lf = CrossEntropyLoss()
        lf(model(x), y)
        model.backward(lf.backward())
        opt.step_flat()
        try:
            opt.undo()
        except NotInvertibleError:
            results[name] = False
            continue
        x1 = model.state_dict()
        results[name] = all(
            np.allclose(x0[k], x1[k], atol=1e-9) for k in x0
        )
    return results


def test_table1(benchmark):
    empirical = benchmark(empirical_invertibility)
    rows = table1_rows()
    headers = ["Operator", *OPTIMIZERS.keys(), "Inv."]
    table_rows = [
        [r["operator"]]
        + ["x" if r[o] else "" for o in OPTIMIZERS]
        + ["yes" if r["invertible"] else "NO"]
        for r in rows
    ]
    emp = fmt_table(
        ["Optimizer", "Table-1 invertible", "Empirical step+undo roundtrip"],
        [[n, optimizer_invertible(n), emp_ok]
         for n, emp_ok in empirical.items()],
    )
    emit("table1_operators",
         fmt_table(headers, table_rows) + "\n\n" + emp)

    # the analytic table and the live optimizers must agree
    for name, emp_ok in empirical.items():
        assert emp_ok == optimizer_invertible(name), name
