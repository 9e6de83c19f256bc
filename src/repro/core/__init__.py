"""Swift's core contribution: update-undo, replication & logging recovery,
selective logging, strategy selection, and the orchestration trainer."""

from repro.core.checkpoint import (
    CheckpointDelta,
    CheckpointManager,
    SnapshotCost,
    SnapshotManager,
    checkfreq_interval,
)
from repro.core.detector import DetectionReport, FailureDetector
from repro.core.elastic import ElasticCoordinator, ResizeEvent
from repro.core.policies import (
    PolicyContext,
    RecoveryBundle,
    RecoveryPolicy,
    get_recovery_policy,
    recovery_policy_names,
    register_recovery_policy,
    resolve_strategy,
)
from repro.core.global_restart import GlobalCheckpointRecovery
from repro.core.replay import LoggingRecovery
from repro.core.replication import RecoveryReport, ReplicationRecovery
from repro.core.sharded_recovery import ShardedReplicationRecovery
from repro.core.selective import (
    PipelineProfile,
    PlanResult,
    SelectiveLoggingPlanner,
)
from repro.core.strategy import (
    FTStrategy,
    LoggingFeasibility,
    choose_strategy,
    logging_worth_it,
    transformer_message_bytes,
)
from repro.core.tlog import GroupingPlan, LoggingMode, LogRecord, TensorLog
from repro.core.trainer import SwiftTrainer, TrainerConfig, TrainingTrace
from repro.core.undo import (
    UndoReport,
    resolve_dp_consistency,
    resolve_pipeline_consistency,
)

__all__ = [
    "UndoReport",
    "resolve_dp_consistency",
    "resolve_pipeline_consistency",
    "FailureDetector",
    "DetectionReport",
    "CheckpointDelta",
    "CheckpointManager",
    "SnapshotManager",
    "SnapshotCost",
    "checkfreq_interval",
    "TensorLog",
    "LogRecord",
    "GroupingPlan",
    "LoggingMode",
    "LoggingRecovery",
    "ReplicationRecovery",
    "RecoveryReport",
    "ShardedReplicationRecovery",
    "GlobalCheckpointRecovery",
    "ElasticCoordinator",
    "ResizeEvent",
    "SelectiveLoggingPlanner",
    "PipelineProfile",
    "PlanResult",
    "FTStrategy",
    "choose_strategy",
    "logging_worth_it",
    "LoggingFeasibility",
    "transformer_message_bytes",
    "SwiftTrainer",
    "TrainerConfig",
    "TrainingTrace",
    "PolicyContext",
    "RecoveryBundle",
    "RecoveryPolicy",
    "register_recovery_policy",
    "get_recovery_policy",
    "recovery_policy_names",
    "resolve_strategy",
]
