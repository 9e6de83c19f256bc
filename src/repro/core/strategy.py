"""Fault-tolerance strategy selection (paper Section 3 and Section 5.4).

Swift decides the strategy *before training starts*:

1. if the model state has at least one replica on another machine →
   **replication-based recovery** (lowest runtime and recovery overhead);
2. else if pipeline parallelism crosses machines *and logging is worth
   doing* → **logging-based recovery**;
3. else → **global checkpointing only**.

Periodic global checkpointing runs in every case, guarding against
catastrophic failures (loss of all replicas or log data).

"Worth doing" (Section 5.4) is a back-of-envelope calculus: the
per-iteration log volume must be transferable from GPU to CPU within the
pipeline's bubble time, and the log should not dwarf the model state
(CNN-scale activations disqualify themselves).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.optim.ops import optimizer_invertible
from repro.parallel.hybrid import ParallelLayout
from repro.parallel.schedules import bubble_ratio

__all__ = [
    "FTStrategy",
    "MECHANISMS_BY_KIND",
    "LoggingFeasibility",
    "logging_worth_it",
    "choose_strategy",
    "transformer_message_bytes",
]


class FTStrategy(str, Enum):
    """The paper's three fault-tolerance mechanisms (Section 3).

    One shared vocabulary across :class:`TrainerConfig`,
    :class:`~repro.api.FaultToleranceSpec`, and
    :class:`~repro.jobs.JobSpec`; the registry of
    :mod:`repro.core.policies` resolves each value to its mechanism.

    >>> FTStrategy("logging") is FTStrategy.LOGGING
    True
    >>> [s.value for s in FTStrategy]
    ['replication', 'logging', 'checkpoint_only']
    """

    REPLICATION = "replication"
    LOGGING = "logging"
    CHECKPOINT_ONLY = "checkpoint_only"


#: Which mechanisms may protect which engine kind, stated once: specs, the
#: planner's grid, the built-in policies and job submission look it up.
#: Replication needs machine-level replicas (shard mirrors for ``fsdp``),
#: logging a pipeline, the global checkpoint restores every engine.  The
#: first entry is what ``"auto"`` resolves to when no plan ran the chain.
MECHANISMS_BY_KIND: dict[str, tuple[FTStrategy, ...]] = {
    "dp": (FTStrategy.REPLICATION, FTStrategy.CHECKPOINT_ONLY),
    "pp": (FTStrategy.LOGGING, FTStrategy.CHECKPOINT_ONLY),
    "fsdp": (FTStrategy.REPLICATION, FTStrategy.CHECKPOINT_ONLY),
}


def transformer_message_bytes(
    micro_batch_size: int, seq_len: int, hidden_size: int, dtype_bytes: int = 4
) -> int:
    """Per-boundary activation/gradient size for transformer models.

    Section 5.4: "the intermediate activation/gradient size would be
    micro_batch_size × hidden_size × sequence_length in a micro-batch".
    """
    return micro_batch_size * seq_len * hidden_size * dtype_bytes


@dataclass(frozen=True)
class LoggingFeasibility:
    """Outcome of the Section 5.4 use-case calculus."""

    worth_it: bool
    #: per-iteration bytes the busiest sender must log
    log_bytes_per_iteration: float
    #: GPU→CPU copy time for those bytes
    copy_time: float
    #: bubble time available to hide the copy in
    bubble_time: float
    reason: str = ""


def logging_worth_it(
    log_bytes_per_iteration: float,
    iteration_time: float,
    num_stages: int,
    num_microbatches: int,
    pcie_bandwidth: float,
    model_state_bytes: float | None = None,
    log_to_state_ratio_cap: float = 10.0,
) -> LoggingFeasibility:
    """Decide whether logging stays off the critical path (Section 5.4).

    The bubble time per iteration is ``bubble_ratio(p, m) * iteration_time``;
    logging is worthwhile iff the PCIe copy of one iteration's log volume
    fits inside it.  Optionally also reject when the per-checkpoint-interval
    log volume far exceeds the model state ("it would be better to
    checkpoint a model when the logging size far exceeds the model size").
    """
    copy_time = log_bytes_per_iteration / pcie_bandwidth
    bubble_time = bubble_ratio(num_stages, num_microbatches) * iteration_time
    if model_state_bytes is not None and model_state_bytes > 0:
        if log_bytes_per_iteration > log_to_state_ratio_cap * model_state_bytes:
            return LoggingFeasibility(
                False, log_bytes_per_iteration, copy_time, bubble_time,
                reason=f"log volume of {log_bytes_per_iteration / 1e6:.3g} MB "
                       f"per iteration far exceeds the "
                       f"{model_state_bytes / 1e6:.3g} MB of model state "
                       "(CNN-scale activations)",
            )
    if copy_time > bubble_time:
        return LoggingFeasibility(
            False, log_bytes_per_iteration, copy_time, bubble_time,
            reason=f"PCIe copy of {log_bytes_per_iteration / 1e6:.3g} MB "
                   f"takes {copy_time * 1e3:.3g} ms, does not fit in the "
                   f"{bubble_time * 1e3:.3g} ms of bubble time",
        )
    return LoggingFeasibility(
        True, log_bytes_per_iteration, copy_time, bubble_time,
        reason="copy fits within bubble time",
    )


def choose_strategy(
    layout: ParallelLayout,
    feasibility: LoggingFeasibility | None = None,
    optimizer_name: str | None = None,
) -> FTStrategy:
    """The Section 3 decision chain.

    ``optimizer_name`` guards update-undo applicability (Table 1):
    replication-based recovery needs an invertible optimizer to resolve
    crash consistency without snapshots; if the optimizer is not
    invertible, Swift falls back to the next option.

    >>> from repro.parallel.hybrid import ParallelLayout, StagePlacement
    >>> replicated = ParallelLayout(                   # one stage, two
    ...     stages=[StagePlacement(0, ((0,), (1,)))])  # machine replicas
    >>> choose_strategy(replicated).value
    'replication'
    >>> choose_strategy(replicated, optimizer_name="AMSGrad").value
    'checkpoint_only'
    """
    undo_ok = optimizer_name is None or optimizer_invertible(optimizer_name)
    if layout.replication_covers_all_failures() and undo_ok:
        return FTStrategy.REPLICATION
    if (
        layout.is_pipeline_parallel()
        and layout.crosses_machines()
        and (feasibility is None or feasibility.worth_it)
    ):
        return FTStrategy.LOGGING
    return FTStrategy.CHECKPOINT_ONLY
