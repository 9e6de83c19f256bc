"""Small statistics helpers shared by the runner and ``compare.py``."""

from __future__ import annotations

import hashlib
import statistics

import numpy as np


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def mean(values) -> float:
    return float(statistics.fmean(values)) if len(values) else 0.0


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) the way the driver takes them."""
    if len(values) < 2:
        v = float(values[0]) if len(values) else 0.0
        return (v, v, v)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (float(q1), float(q2), float(q3))


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def digest(*parts) -> str:
    """sha256 over arrays, strings and numbers, for repeat-identity checks."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()
