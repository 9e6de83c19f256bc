"""Shared utilities: RNG streams, state (de)serialization, zero-copy views."""

from repro.utils.cow import StateView, freeze_array
from repro.utils.flat import FlatArena, FlatBuffer
from repro.utils.jsonl import JsonlWriter, canonical_json
from repro.utils.pool import BufferPool, PooledBuffer
from repro.utils.seeding import RngStream, derive_seed, stream
from repro.utils.serialization import (
    clone_state,
    state_allclose,
    state_equal,
    state_nbytes,
    load_state_bytes,
    save_state_bytes,
)

__all__ = [
    "StateView",
    "freeze_array",
    "FlatArena",
    "FlatBuffer",
    "BufferPool",
    "PooledBuffer",
    "JsonlWriter",
    "canonical_json",
    "RngStream",
    "derive_seed",
    "stream",
    "clone_state",
    "state_allclose",
    "state_equal",
    "state_nbytes",
    "save_state_bytes",
    "load_state_bytes",
]
