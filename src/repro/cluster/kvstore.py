"""Global key-value store for failure signalling.

The paper co-locates a KV store with the master (rank 0): a worker that
catches an asynchronous NCCL error sets a failure flag there, and all other
workers poll the flag and abort their communicators (Section 6, "Failure
detection").  This module holds the flag; the time the protocol takes is
charged once, as :data:`repro.core.detector.DETECTION_TIME`.
"""

from __future__ import annotations

__all__ = ["KVStore", "FAILURE_FLAG"]

FAILURE_FLAG = "swift/failure_flag"


class KVStore:
    """A tiny strongly-consistent KV store (assumed to survive failures).

    In the paper the store lives on the master machine; a master failure is
    a catastrophic failure handled by periodic global checkpointing, which
    the trainer also implements, so modelling the store as durable is safe.
    """

    def __init__(self) -> None:
        self._data: dict[str, object] = {}

    def set(self, key: str, value: object) -> None:
        self._data[key] = value

    def get(self, key: str, default: object = None) -> object:
        return self._data.get(key, default)

    def delete(self, key: str) -> None:
        self._data.pop(key, None)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    # -- failure-flag protocol -------------------------------------------------
    def raise_failure(self, machine_id: int, iteration: int) -> None:
        """Record that a failure was observed (idempotent)."""
        if FAILURE_FLAG not in self._data:
            self._data[FAILURE_FLAG] = {
                "machine_id": machine_id,
                "iteration": iteration,
            }

    def failure_raised(self) -> bool:
        return FAILURE_FLAG in self._data

    def failure_info(self) -> dict | None:
        value = self._data.get(FAILURE_FLAG)
        return dict(value) if isinstance(value, dict) else None

    def clear_failure(self) -> None:
        self._data.pop(FAILURE_FLAG, None)
