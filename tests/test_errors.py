"""Exception hierarchy contracts."""

import ast
import functools
from pathlib import Path

import pytest

from repro.errors import (
    CheckpointError,
    CommunicationError,
    ConfigurationError,
    LogIntegrityError,
    MachineFailure,
    NotInvertibleError,
    RecoveryError,
    ReproError,
    ShapeError,
    StorageError,
)

ALL = [
    CheckpointError,
    CommunicationError,
    ConfigurationError,
    LogIntegrityError,
    MachineFailure,
    NotInvertibleError,
    RecoveryError,
    ShapeError,
    StorageError,
]


@pytest.mark.parametrize("exc", ALL)
def test_all_derive_from_repro_error(exc):
    assert issubclass(exc, ReproError)
    assert issubclass(exc, Exception)


@functools.cache
def raised_by_library() -> set[str]:
    """Names of the exception classes some ``raise`` in ``src/repro``
    raises."""
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    raised = set()
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    return raised


@pytest.mark.parametrize("exc", ALL)
def test_every_error_is_raised_by_the_library(exc):
    """An error class nothing raises is surface with no behaviour."""
    assert exc.__name__ in raised_by_library()


def test_machine_failure_carries_machine_id():
    err = MachineFailure(3)
    assert err.machine_id == 3
    assert "machine 3" in str(err)


def test_communication_error_carries_endpoints():
    err = CommunicationError(1, 2)
    assert (err.src, err.dst) == (1, 2)
    assert "worker 1" in str(err)


def test_custom_messages_respected():
    assert str(MachineFailure(0, "boom")) == "boom"
    assert str(CommunicationError(0, 1, "link down")) == "link down"


def test_catching_the_family():
    with pytest.raises(ReproError):
        raise NotInvertibleError("no undo")
