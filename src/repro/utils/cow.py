"""Copy-on-write state views: the zero-copy snapshot primitive.

Every recovery mechanism in this library moves *state dicts* (flat
``dict[str, np.ndarray]``) around: checkpoints, CheckFreq-style snapshots,
replica broadcasts, shard mirrors.  The eager way to protect a snapshot
from later training updates is a deep copy (:func:`repro.utils.clone_state`)
— O(state bytes) of memcpy squarely on the critical path, which is exactly
the overhead the paper says a recovery mechanism must avoid.

The observation that makes zero-copy safe here: every producer of a state
dict (``Module.state_dict``, ``Optimizer.state_dict``, ``full_state``)
already hands out *private* arrays, and every consumer that writes state
back (``load_state_dict``, ``load_full_state``) copies on ingest.  The
second defensive copy at the snapshot boundary protects against nothing —
except accidental in-place mutation, which a read-only view rejects just
as well at O(1) cost.

:class:`StateView` therefore captures a state dict by *reference*:

* construction is O(#keys) — no array data is touched;
* every leaf is frozen in place (``writeable=False``), so a later
  in-place write through the captured array object — or any view derived
  from it afterwards — raises ``ValueError`` instead of silently
  corrupting the snapshot (out-of-place rebinding, the way the
  optimizers and modules actually update state, never touches the view).
  Writable arrays that do not own their buffer are copied on capture,
  so a caller passing a slice of a live tensor cannot mutate the
  snapshot through the base either.  The one hole NumPy cannot close:
  a writable alias that existed *before* capture — producers must hand
  over private arrays, which every ``state_dict``/``full_state`` in
  this library does;
* writes go through :meth:`child`, which shares unchanged leaves and
  records the overwritten keys as *dirty* — the copy-on-write step is
  O(changed bytes), not O(state bytes);
* :meth:`materialize` produces a plain writable deep copy on demand
  (materialize-on-write: the copy happens only when a consumer needs
  mutable arrays, e.g. checkpoint *restore*).

Views are versioned: each construction draws a fresh monotonically
increasing version number, and children remember their parent's version,
so incremental checkpointing can name the base a delta applies to.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Mapping

import numpy as np

__all__ = ["StateView", "freeze_array"]

#: process-wide monotonic version source for views
_VERSIONS = itertools.count(1)


def freeze_array(value: object) -> np.ndarray:
    """Return ``value`` as a read-only ndarray, freezing it in place.

    The copy-on-write tripwire: the array object is marked non-writeable
    (no copy), so in-place writes through it — or through views derived
    from it later — fail loudly instead of mutating a live snapshot.

    ``setflags`` is per-object, not per-buffer: it cannot revoke write
    access from aliases that already exist.  Writable arrays that do not
    own their buffer (views/slices of something else) are therefore
    copied, closing the commonest aliasing hole; a pre-existing alias of
    an *owning* array remains the producer's responsibility — hand over
    private arrays, as every state producer in this library does.
    """
    arr = np.asarray(value)
    if arr.flags.writeable:
        if not arr.flags.owndata:
            arr = np.array(arr, copy=True)
        arr.setflags(write=False)
    return arr


class StateView(Mapping):
    """An immutable, versioned, zero-copy view of a state dict."""

    __slots__ = ("_leaves", "version", "parent_version", "dirty")

    def __init__(
        self,
        leaves: dict[str, np.ndarray],
        version: int,
        parent_version: int | None,
        dirty: frozenset[str],
    ):
        self._leaves = leaves
        #: unique monotonically increasing id of this view
        self.version = version
        #: version of the view this one was derived from (None for roots)
        self.parent_version = parent_version
        #: keys whose leaves differ from the parent (all keys for roots)
        self.dirty = dirty

    # -- construction -------------------------------------------------------
    @classmethod
    def of(cls, state: Mapping[str, np.ndarray]) -> "StateView":
        """Capture ``state`` by reference in O(#keys).

        Takes ownership of the leaf arrays: they are frozen in place.  A
        ``StateView`` passed in is returned unchanged (already immutable).
        """
        if isinstance(state, StateView):
            return state
        leaves = {k: freeze_array(v) for k, v in state.items()}
        return cls(leaves, next(_VERSIONS), None, frozenset(leaves))

    def child(self, updates: Mapping[str, np.ndarray]) -> "StateView":
        """Derive a new view with some leaves replaced (the COW write).

        Unchanged leaves are shared by reference with this view; only the
        keys in ``updates`` get new (frozen) arrays and are recorded as
        dirty relative to this view.
        """
        unknown = updates.keys() - self._leaves.keys()
        if unknown:
            raise KeyError(f"unknown state keys {sorted(unknown)}")
        leaves = dict(self._leaves)
        for k, v in updates.items():
            leaves[k] = freeze_array(v)
        return StateView(
            leaves, next(_VERSIONS), self.version, frozenset(updates)
        )

    def select(self, keys: Mapping[str, object] | set[str] | list[str]
               ) -> "StateView":
        """Zero-copy sub-view restricted to ``keys`` (e.g. a delta)."""
        leaves = {k: self._leaves[k] for k in keys}
        return StateView(
            leaves, next(_VERSIONS), self.version, frozenset(leaves)
        )

    # -- Mapping interface ---------------------------------------------------
    def __getitem__(self, key: str) -> np.ndarray:
        return self._leaves[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._leaves)

    def __len__(self) -> int:
        return len(self._leaves)

    def __repr__(self) -> str:
        return (
            f"StateView(version={self.version}, keys={len(self._leaves)}, "
            f"nbytes={self.nbytes})"
        )

    # -- materialization -----------------------------------------------------
    def materialize(self, keys: list[str] | None = None
                    ) -> dict[str, np.ndarray]:
        """Writable deep copy of the view (or of a subset of its keys).

        This is the only O(bytes) operation; it runs on the *restore* path
        where the consumer genuinely needs private mutable arrays.
        """
        names = self._leaves if keys is None else keys
        return {k: np.array(self._leaves[k], copy=True) for k in names}

    # -- queries ---------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        return int(sum(v.nbytes for v in self._leaves.values()))
