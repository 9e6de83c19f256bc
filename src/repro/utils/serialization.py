"""State-dict utilities: cloning, comparison, and byte-level serialization.

A *state dict* throughout this library is a flat ``dict[str, np.ndarray]``
(model parameters, optimizer moments, counters).  Checkpoints, snapshots,
replicas, and logging payloads all move state dicts around, so the helpers
here are the common currency of every recovery mechanism.

Zero-copy counterparts live in :mod:`repro.utils.cow`: where
:func:`clone_state` eagerly duplicates every leaf, a
:class:`~repro.utils.cow.StateView` captures the same dict in O(#keys).
The byte-level serializers support *incremental* (delta) persists: pass
``keys`` to :func:`save_state_bytes` to write only the changed leaves, and
``base`` to :func:`load_state_bytes` to overlay a delta onto the state it
was taken against.
"""

from __future__ import annotations

import io
from collections.abc import Mapping

import numpy as np

__all__ = [
    "clone_state",
    "state_equal",
    "state_allclose",
    "state_nbytes",
    "save_state_bytes",
    "load_state_bytes",
]

StateDict = dict[str, np.ndarray]


def clone_state(state: Mapping[str, np.ndarray]) -> StateDict:
    """Deep-copy a state dict (the snapshot primitive of CheckFreq et al.)."""
    return {k: np.array(v, copy=True) for k, v in state.items()}


def state_equal(a: Mapping[str, np.ndarray], b: Mapping[str, np.ndarray]) -> bool:
    """True iff both states have identical keys and bitwise-equal arrays."""
    if a.keys() != b.keys():
        return False
    pairs = [(np.asarray(a[k]), np.asarray(b[k])) for k in a]
    # shape mismatches settle the answer without touching any values
    if any(x.shape != y.shape for x, y in pairs):
        return False
    return all(x is y or np.array_equal(x, y) for x, y in pairs)


def state_allclose(
    a: Mapping[str, np.ndarray],
    b: Mapping[str, np.ndarray],
    rtol: float = 1e-5,
    atol: float = 1e-7,
) -> bool:
    """True iff both states match within floating-point tolerance.

    Update-undo recovers a state that may differ from the original by
    floating-point rounding (paper Section 4), so undo tests compare with
    this rather than :func:`state_equal`.
    """
    if a.keys() != b.keys():
        return False
    pairs = [(np.asarray(a[k]), np.asarray(b[k])) for k in a]
    # shape mismatch is never "close" — and must not silently broadcast
    if any(x.shape != y.shape for x, y in pairs):
        return False
    return all(x is y or np.allclose(x, y, rtol=rtol, atol=atol)
               for x, y in pairs)


def state_nbytes(state: Mapping[str, np.ndarray]) -> int:
    """Total payload size in bytes (used by the checkpoint cost model)."""
    return int(sum(np.asarray(v).nbytes for v in state.values()))


def save_state_bytes(
    state: Mapping[str, np.ndarray], keys: set[str] | list[str] | None = None
) -> bytes:
    """Serialize a state dict (or a subset of its leaves) to bytes.

    ``keys`` selects an incremental persist: only the named leaves are
    written, producing a *delta* blob that :func:`load_state_bytes` can
    overlay onto the base state it was taken against.
    """
    if keys is not None:
        missing = set(keys) - state.keys()
        if missing:
            raise KeyError(f"delta keys not in state: {sorted(missing)}")
        state = {k: state[k] for k in keys}
    buf = io.BytesIO()
    np.savez(buf, **{k: np.asarray(v) for k, v in state.items()})
    return buf.getvalue()


def load_state_bytes(
    payload: bytes, base: Mapping[str, np.ndarray] | None = None
) -> StateDict:
    """Inverse of :func:`save_state_bytes`.

    With ``base``, ``payload`` is treated as a delta: the result is the
    base state overlaid with the deserialized leaves.  Unchanged leaves
    are shared with ``base`` by reference (zero-copy overlay); call
    :func:`clone_state` on the result if private arrays are needed.
    """
    buf = io.BytesIO(payload)
    with np.load(buf) as npz:
        # npz arrays are freshly decompressed — no defensive copy needed
        loaded = {k: npz[k] for k in npz.files}
    if base is None:
        return loaded
    merged: StateDict = {k: np.asarray(v) for k, v in base.items()}
    merged.update(loaded)
    return merged
