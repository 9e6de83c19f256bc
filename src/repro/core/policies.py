"""Pluggable fault-tolerance recovery policies (registry behind the trainer).

The paper's Section 3 decision chain names three built-in mechanisms —
replication-based recovery, logging-based recovery (including its
parallel-replay variant, Section 5.2), and global checkpoint-restart —
but the trainer used to hard-wire them with ``isinstance``/string
dispatch.  This module turns each mechanism into a :class:`RecoveryPolicy`
registered under its :class:`~repro.core.strategy.FTStrategy` name, so

* the trainer looks recovery machinery up instead of constructing it
  inline, and
* future strategies (e.g. erasure-coded state, remote-memory logging)
  plug in via :func:`register_recovery_policy` without touching
  ``SwiftTrainer``.

A policy owns the *whole* wiring of its mechanism: the logging policy,
for example, attaches the tensor log to the pipeline transport, installs
the overhead hook, and registers log GC with the checkpoint manager —
side effects that previously lived in the trainer's constructor.

Which engine kinds a built-in may protect is the one table beside
:class:`~repro.core.strategy.FTStrategy`, ``MECHANISMS_BY_KIND``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.cluster.clock import SimClock
from repro.cluster.topology import Cluster
from repro.core.checkpoint import CheckpointManager
from repro.core.detector import FailureDetector
from repro.core.strategy import MECHANISMS_BY_KIND, FTStrategy
from repro.core.tlog import GroupingPlan, LoggingMode, TensorLog
from repro.errors import ConfigurationError
from repro.utils.pool import BufferPool

__all__ = [
    "PolicyContext",
    "RecoveryBundle",
    "RecoveryPolicy",
    "register_recovery_policy",
    "get_recovery_policy",
    "recovery_policy_names",
    "resolve_strategy",
]


@dataclass
class PolicyContext:
    """Everything a policy may need to assemble its recovery machinery."""

    engine: object
    config: object  # TrainerConfig (kept loose to avoid an import cycle)
    clock: SimClock
    cluster: Cluster
    checkpoints: CheckpointManager
    detector: FailureDetector
    grouping: GroupingPlan | None = None
    logging_mode: LoggingMode = LoggingMode.BUBBLE


@dataclass
class RecoveryBundle:
    """What a policy hands back to the trainer."""

    recovery: object
    #: tensor log, when the mechanism taps pipeline messages
    tlog: TensorLog | None = None
    #: shared message-buffer arena, when pooled messaging is active
    pool: BufferPool | None = None


@runtime_checkable
class RecoveryPolicy(Protocol):
    """One fault-tolerance mechanism, pluggable into :class:`SwiftTrainer`.

    Implement ``name``/``compatible``/``describe_requirements``/``build``
    and register via :func:`register_recovery_policy`; the strategy name
    then works everywhere an :class:`FTStrategy` value does.

    >>> policy = get_recovery_policy("replication")
    >>> isinstance(policy, RecoveryPolicy)
    True
    >>> policy.describe_requirements()
    'a data-parallel or sharded engine (replicas on >= 2 machines)'
    """

    #: registry key; must equal an :class:`FTStrategy` value for the
    #: built-ins, free-form for extensions
    name: str

    def compatible(self, engine: object) -> bool:
        """Can this mechanism protect the given engine?"""
        ...

    def describe_requirements(self) -> str:
        """Human-readable engine requirement (for error messages)."""
        ...

    def build(self, ctx: PolicyContext) -> RecoveryBundle:
        """Assemble the recovery object (and any taps/hooks) for ``ctx``."""
        ...


def _mechanisms_for(engine: object) -> tuple[FTStrategy, ...]:
    """The table row of ``engine``'s kind (empty for an unknown engine)."""
    return MECHANISMS_BY_KIND.get(getattr(engine, "kind", None), ())


class ReplicationPolicy:
    """Replication-based recovery: survivors re-seed replacements (§4).

    Full replicas for data parallelism; for sharded data parallelism the
    replica is each shard's cross-machine mirror (§8).
    """

    name = FTStrategy.REPLICATION.value

    def compatible(self, engine: object) -> bool:
        return self.name in _mechanisms_for(engine)

    def describe_requirements(self) -> str:
        return "a data-parallel or sharded engine (replicas on >= 2 machines)"

    def build(self, ctx: PolicyContext) -> RecoveryBundle:
        from repro.core.replication import ReplicationRecovery
        from repro.core.sharded_recovery import ShardedReplicationRecovery

        mechanism = (
            ShardedReplicationRecovery
            if ctx.engine.kind == "fsdp" else ReplicationRecovery
        )
        return RecoveryBundle(
            recovery=mechanism(
                ctx.engine,
                ctx.detector,
                ctx.clock,
                replacement_join_time=ctx.config.replacement_join_time,
            )
        )


class LoggingPolicy:
    """Logging-based recovery with optional parallel replay (§5, §5.2).

    ``config.parallel_recovery_degree > 1`` selects the parallel-replay
    variant; the mechanism (sender-side tensor log, checkpoint-scoped GC,
    bubble-hidden spills) is identical.
    """

    name = FTStrategy.LOGGING.value

    def compatible(self, engine: object) -> bool:
        return self.name in _mechanisms_for(engine)

    def describe_requirements(self) -> str:
        return "a pipeline-parallel engine (loggable stage boundaries)"

    def build(self, ctx: PolicyContext) -> RecoveryBundle:
        from repro.core.replay import LoggingRecovery

        engine = ctx.engine
        pool = BufferPool() if ctx.config.pooled_messaging else None
        if pool is not None:
            engine.transport.pool = pool
        tlog = TensorLog(ctx.cluster, ctx.grouping, mode=ctx.logging_mode)
        tlog.pool = pool
        tlog.attach(engine.transport)
        engine.overhead_hooks.append(tlog.make_overhead_hook())
        ctx.checkpoints.post_checkpoint_hooks.append(tlog.gc)
        return RecoveryBundle(
            recovery=LoggingRecovery(
                engine,
                tlog,
                ctx.checkpoints,
                ctx.detector,
                ctx.clock,
                parallel_degree=ctx.config.parallel_recovery_degree,
                replacement_join_time=ctx.config.replacement_join_time,
            ),
            tlog=tlog,
            pool=pool,
        )


class CheckpointOnlyPolicy:
    """Global checkpoint-restart, the Section 3 fallback baseline and the
    one mechanism every engine kind accepts."""

    name = FTStrategy.CHECKPOINT_ONLY.value

    def compatible(self, engine: object) -> bool:
        return self.name in _mechanisms_for(engine)

    def describe_requirements(self) -> str:
        return "any checkpointable engine"

    def build(self, ctx: PolicyContext) -> RecoveryBundle:
        from repro.core.global_restart import GlobalCheckpointRecovery

        return RecoveryBundle(
            recovery=GlobalCheckpointRecovery(
                ctx.engine,
                ctx.checkpoints,
                ctx.detector,
                ctx.clock,
                replacement_join_time=ctx.config.replacement_join_time,
            )
        )


_REGISTRY: dict[str, RecoveryPolicy] = {}


def register_recovery_policy(
    policy: RecoveryPolicy, *, replace: bool = False
) -> RecoveryPolicy:
    """Register a policy under ``policy.name``; returns it for chaining.

    >>> class NullPolicy:
    ...     name = "docs_null"
    ...     def compatible(self, engine): return True
    ...     def describe_requirements(self): return "anything"
    ...     def build(self, ctx): raise NotImplementedError
    >>> _ = register_recovery_policy(NullPolicy(), replace=True)
    >>> "docs_null" in recovery_policy_names()
    True
    """
    if not replace and policy.name in _REGISTRY:
        raise ConfigurationError(
            f"recovery policy {policy.name!r} already registered"
        )
    _REGISTRY[policy.name] = policy
    return policy


def get_recovery_policy(name: str | FTStrategy) -> RecoveryPolicy:
    """Look up a registered policy by strategy name or enum member.

    >>> get_recovery_policy(FTStrategy.LOGGING).name
    'logging'
    """
    key = name.value if isinstance(name, FTStrategy) else name
    try:
        return _REGISTRY[key]
    except KeyError:
        raise ConfigurationError(
            f"unknown recovery policy {key!r}; registered: "
            f"{sorted(_REGISTRY)}"
        ) from None


def recovery_policy_names() -> list[str]:
    """Sorted names of every registered recovery policy.

    >>> {"replication", "logging", "checkpoint_only"} \
<= set(recovery_policy_names())
    True
    """
    return sorted(_REGISTRY)


def resolve_strategy(
    requested: str | FTStrategy, engine: object
) -> FTStrategy | str:
    """Normalize a requested strategy against the engine (build time).

    ``"auto"`` applies the engine-default arm of the Section 3 chain —
    the first mechanism of the engine kind's row in
    :data:`~repro.core.strategy.MECHANISMS_BY_KIND`; explicit
    names are validated against the engine so a mismatch fails with a
    clear :class:`ConfigurationError` instead of mis-wiring recovery.
    """
    if isinstance(requested, FTStrategy):
        requested = requested.value
    if requested == "auto":
        mechanisms = _mechanisms_for(engine)
        if not mechanisms:
            raise ConfigurationError(
                f"no auto strategy for engine {type(engine).__name__}; "
                "pass an explicit strategy"
            )
        return mechanisms[0]
    try:
        strategy = FTStrategy(requested)
    except ValueError:
        # a custom-registered policy outside the paper's three mechanisms
        strategy = requested
    policy = get_recovery_policy(strategy)
    if not policy.compatible(engine):
        raise ConfigurationError(
            f"strategy {requested!r} requires "
            f"{policy.describe_requirements()}, "
            f"got {type(engine).__name__}"
        )
    return strategy


register_recovery_policy(ReplicationPolicy())
register_recovery_policy(LoggingPolicy())
register_recovery_policy(CheckpointOnlyPolicy())
