"""Swift: expedited failure recovery for large-scale DNN training.

Reproduction of Zhong et al., PPoPP 2023 (arXiv:2302.06173).  The package
is layered:

* :mod:`repro.nn`, :mod:`repro.models`, :mod:`repro.optim`, :mod:`repro.data`
  -- a from-scratch NumPy deep-learning substrate with invertible optimizers;
* :mod:`repro.cluster`, :mod:`repro.comm`, :mod:`repro.parallel`
  -- a simulated multi-machine cluster with data/pipeline-parallel engines;
* :mod:`repro.core` -- Swift itself: update-undo, replication-based and
  logging-based recovery, parallel recovery, selective logging, strategy
  selection, and the :class:`~repro.core.SwiftTrainer` orchestration loop;
* :mod:`repro.sim` -- the analytic cost model and simulators behind every
  table and figure of the paper's evaluation;
* :mod:`repro.jobs` -- the fleet layer: schedulable jobs, the gang
  policy (failure-aware placement, priority preemption via elastic
  scale-in/out) and the spare pool that the control plane's one
  scheduler decides with on one shared cluster;
* :mod:`repro.api` -- the declarative experiment surface (Section 6
  usage): validated specs -> inspectable :class:`~repro.api.ExecutionPlan`
  -> live :class:`~repro.api.Session`, with fleet lowering and a
  pluggable recovery-policy registry;
* :mod:`repro.chaos` -- trace- and distribution-driven failure
  scenarios: seeded failure processes, a registry of named scenarios,
  and the :class:`~repro.chaos.FailureTrace` record/replay format that
  makes any stochastic run bitwise-reproducible;
* :mod:`repro.obs` -- the observability layer: zero-overhead-when-
  disabled spans/counters/gauges across trainer, engines, and fleet,
  captured into a versioned :class:`~repro.obs.TelemetryTrace` with
  Chrome-trace (Perfetto), CSV, and terminal exporters;
* :mod:`repro.serve` -- the crash-recoverable multi-tenant control
  plane: a WAL-backed long-running service (recovery is replay, applied
  to the scheduler itself), admission control and fair share across
  tenants, bounded retries through storage outages, and chaos drills
  that SIGKILL the control plane at arbitrary WAL offsets.
"""

from repro import (
    api,
    chaos,
    cluster,
    comm,
    core,
    data,
    jobs,
    models,
    nn,
    obs,
    optim,
    parallel,
    serve,
    sim,
)
from repro.obs import (
    NullRecorder,
    TelemetryTrace,
    TraceRecorder,
    record_recovery_phases,
)
from repro.chaos import FailureTrace, ScenarioSpec, get_scenario
from repro.api import (
    ClusterSpec,
    DataSpec,
    Experiment,
    FaultToleranceSpec,
    ModelSpec,
    ParallelismSpec,
    Session,
)
from repro.core import (
    FTStrategy,
    GroupingPlan,
    LoggingMode,
    LoggingRecovery,
    ReplicationRecovery,
    SelectiveLoggingPlanner,
    SwiftTrainer,
    TrainerConfig,
    choose_strategy,
)

__version__ = "1.0.0"

__all__ = [
    "nn",
    "models",
    "optim",
    "data",
    "cluster",
    "comm",
    "parallel",
    "core",
    "sim",
    "jobs",
    "api",
    "chaos",
    "obs",
    "serve",
    "TelemetryTrace",
    "TraceRecorder",
    "NullRecorder",
    "record_recovery_phases",
    "FailureTrace",
    "ScenarioSpec",
    "get_scenario",
    "Experiment",
    "Session",
    "ModelSpec",
    "DataSpec",
    "ClusterSpec",
    "ParallelismSpec",
    "FaultToleranceSpec",
    "SwiftTrainer",
    "TrainerConfig",
    "FTStrategy",
    "choose_strategy",
    "GroupingPlan",
    "LoggingMode",
    "LoggingRecovery",
    "ReplicationRecovery",
    "SelectiveLoggingPlanner",
    "__version__",
]
