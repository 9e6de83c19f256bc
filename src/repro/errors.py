"""Exception hierarchy for the Swift reproduction.

All library-specific failures derive from :class:`ReproError` so callers can
catch the whole family with one clause.  Communication and machine failures
are modelled after the fail-stop semantics of the paper (Section 3): a crash
surfaces to peers as a :class:`CommunicationError`, mirroring how Swift
detects machine failures by catching NCCL communicator errors.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "ShapeError",
    "NotInvertibleError",
    "MachineFailure",
    "CommunicationError",
    "CheckpointError",
    "StorageError",
    "LogIntegrityError",
    "RecoveryError",
]


class ReproError(Exception):
    """Base class for every error raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """An invalid or inconsistent configuration was supplied."""


class ShapeError(ReproError):
    """A tensor had an unexpected shape."""


class NotInvertibleError(ReproError):
    """The optimizer update cannot be undone (Table 1: e.g. AMSGrad).

    Raised by :meth:`repro.optim.Optimizer.undo` when the optimizer uses
    non-invertible operators such as the element-wise running maximum.
    """


class MachineFailure(ReproError):
    """A machine crashed (fail-stop): all volatile state on it is lost."""

    def __init__(self, machine_id: int, message: str | None = None):
        self.machine_id = machine_id
        super().__init__(message or f"machine {machine_id} failed (fail-stop)")


class CommunicationError(ReproError):
    """A communication operation touched a dead peer.

    This is the simulated analogue of an asynchronous NCCL error: workers
    talking to a crashed machine observe this error and set the global
    failure flag (paper Section 6, "Failure detection").
    """

    def __init__(self, src: int, dst: int, message: str | None = None):
        self.src = src
        self.dst = dst
        super().__init__(
            message or f"communication failed between worker {src} and worker {dst}"
        )


class CheckpointError(ReproError):
    """Checkpoint could not be written, read, or validated."""


class StorageError(ReproError):
    """A storage operation failed transiently (e.g. an outage window).

    Raised by :class:`repro.cluster.GlobalStore` while an injected outage
    window is active.  Transient by design: callers are expected to wrap
    storage writes in :func:`repro.serve.retry_call` rather than treat
    this as fatal.
    """


class LogIntegrityError(ReproError):
    """A required logging record is missing or out of order.

    Once a piece of logged data is missing the original state cannot be
    recovered precisely (Section 1), so replay refuses to proceed.
    """


class RecoveryError(ReproError):
    """Failure recovery could not complete."""
