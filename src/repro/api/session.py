"""Session: the live facade an Experiment builds into (Section 6 usage).

A Session owns the materialized cluster, the engine, and the
:class:`~repro.core.SwiftTrainer` assembled through the recovery policy
registry with the strategy the plan decided — for DP, PP and sharded-DP
(FSDP) plans alike.  It is the one place ``src/repro`` constructs a
trainer: fleet jobs (:class:`repro.jobs.Job`) hold a Session too.

The facade adds nothing numeric: ``run``/``step`` delegate straight to
``SwiftTrainer.train``/``step``, so traces are bitwise-equal to driving a
hand-wired trainer with the same seeds and schedule.
"""

from __future__ import annotations

from repro.api.engines import build_engine
from repro.api.experiment import ExecutionPlan, Experiment
from repro.cluster.clock import SimClock
from repro.cluster.failures import FailureSchedule
from repro.cluster.topology import Cluster
from repro.core.strategy import FTStrategy
from repro.core.trainer import SwiftTrainer, TrainingTrace
from repro.errors import ConfigurationError
from repro.jobs.spec import JobSpec
from repro.obs import Recorder, TelemetryTrace
from repro.parallel.results import IterationResult

__all__ = ["Session"]


class Session:
    """A built experiment: engine + fault tolerance + lifetime trace.

    >>> from repro.api import (ClusterSpec, Experiment, ModelSpec,
    ...                        ParallelismSpec)
    >>> session = Experiment(
    ...     model=ModelSpec(family="mlp", dim=4, hidden_dim=8, seed=2),
    ...     cluster=ClusterSpec(num_machines=2, devices_per_machine=1),
    ...     parallelism=ParallelismSpec(kind="dp", num_workers=2),
    ... ).build()
    >>> trace = session.run(3)
    >>> len(trace.losses), session.engine.iteration
    (3, 3)
    >>> session.trace.losses == trace.losses   # lifetime trace
    True
    """

    def __init__(
        self,
        experiment: Experiment,
        plan: ExecutionPlan,
        cluster: Cluster | None = None,
        clock: SimClock | None = None,
    ):
        self.experiment = experiment
        self.plan = plan
        self.cluster = (
            cluster if cluster is not None else experiment.cluster.build()
        )
        self.clock = clock or SimClock()
        self.engine = build_engine(plan, self.cluster, self.clock)
        #: the last scenario trace sampled by :meth:`run` (if any)
        self.chaos_trace = None
        ft = experiment.fault_tolerance
        # run the strategy the PLAN decided, not the raw spec value:
        # "auto" may have resolved past the engine default (e.g. a DP
        # layout with no second machine, or a non-invertible optimizer,
        # plans checkpoint_only) and the session must honor the decision
        # plan() reported
        config = ft.to_trainer_config()
        config.strategy = (
            plan.strategy.value
            if isinstance(plan.strategy, FTStrategy) else plan.strategy
        )
        self.trainer = SwiftTrainer(
            self.engine,
            config,
            clock=self.clock,
            grouping=ft.grouping,
            logging_mode=ft.logging_mode_enum,
            checkpoint_prefix=ft.checkpoint_prefix,
        )
        # step() never passes through train(), so the spec's limit has to
        # be in force from construction
        self.trainer.max_recoveries = ft.max_recoveries
        self.recovery = self.trainer.recovery

    # -- observability ----------------------------------------------------
    @property
    def trace(self) -> TrainingTrace:
        """Lifetime trace across every run()/step() call."""
        return self.trainer.trace

    @property
    def recorder(self) -> Recorder:
        """The attached instrumentation sink (NULL_RECORDER by default);
        attach one via run(recorder=...) or :meth:`attach_recorder`."""
        return self.trainer.recorder

    def attach_recorder(self, recorder: Recorder) -> None:
        """Route this session's instrumentation through ``recorder``.

        Binds the session's sim clock to the recorder (unless it already
        has one) and threads the recorder through the trainer and engine
        so every iteration phase, recovery phase, counter, and gauge
        lands in the same telemetry stream.
        """
        if recorder.enabled and getattr(recorder, "clock", None) is None:
            recorder.clock = self.clock
        self.trainer.recorder = recorder
        self.engine.recorder = recorder

    @property
    def telemetry(self) -> TelemetryTrace:
        """Telemetry of this session's recorded runs, metadata-stamped.

        Requires a :class:`~repro.obs.TraceRecorder` attached via
        ``run(recorder=...)`` or :meth:`attach_recorder`.
        """
        rec = self.recorder
        if not rec.enabled or not hasattr(rec, "trace"):
            raise ConfigurationError(
                "no TraceRecorder attached; pass recorder= to run() "
                "or call attach_recorder() first"
            )
        ft = self.experiment.fault_tolerance
        meta = {
            "experiment": self.experiment.name,
            "engine": self.plan.engine_kind,
            "strategy": self.trainer.config.strategy,
            "batch_size": self.experiment.data.batch_size,
        }
        if ft.scenario is not None:
            meta["scenario"] = ft.scenario
            meta["scenario_seed"] = ft.scenario_seed
        return rec.trace(source=f"session:{self.experiment.name}", **meta)

    def describe(self) -> str:
        lines = [self.plan.describe()]
        lines.append(
            f"  session:         {type(self.engine).__name__} live on "
            f"{self.cluster.num_machines} machines, "
            f"iteration {self.engine.iteration}"
        )
        return "\n".join(lines)

    # -- driving ----------------------------------------------------------
    def run(
        self,
        iterations: int,
        failures: FailureSchedule | None = None,
        max_recoveries: int | None = None,
        recorder: Recorder | None = None,
    ) -> TrainingTrace:
        """Train to ``iterations``, recovering from scheduled failures.

        Returns the trace of *this call* (the lifetime trace stays on
        :attr:`trace`), exactly like ``SwiftTrainer.train``.

        When the experiment's :class:`FaultToleranceSpec` names a
        :mod:`repro.chaos` ``scenario`` and no explicit ``failures`` are
        passed, the scenario is sampled (seeded by ``scenario_seed``)
        over this run's iteration horizon; the sampled trace is kept on
        :attr:`chaos_trace` for saving/replay.

        Pass ``recorder=`` (e.g. a :class:`~repro.obs.TraceRecorder`) to
        capture per-phase telemetry; it stays attached for later calls
        and :attr:`telemetry` freezes the stream.  The default null
        recorder keeps the run bitwise-identical to an uninstrumented
        one.
        """
        if recorder is not None:
            self.attach_recorder(recorder)
        ft = self.experiment.fault_tolerance
        if failures is None and ft.scenario is not None:
            # the scenario describes the [0, iterations) timeline; a
            # continuation run keeps only the events it can still hit,
            # so chaos_trace records exactly what this call injected
            trace = ft.resolve_scenario().sample(
                ft.scenario_seed,
                self.cluster.num_machines,
                horizon_iters=iterations,
            ).after_iteration(self.engine.iteration)
            self.chaos_trace = trace
            failures = trace.to_schedule()
        return self.trainer.train(
            iterations,
            failures=failures,
            max_recoveries=(
                ft.max_recoveries if max_recoveries is None
                else max_recoveries
            ),
        )

    def step(
        self, failures: FailureSchedule | None = None
    ) -> IterationResult:
        """Run (at most) one iteration — the cooperative scheduling unit."""
        return self.trainer.step(failures)

    # -- fleet lowering ---------------------------------------------------
    def submit(self, iterations: int, **spec_kwargs) -> JobSpec:
        """Lower this experiment into the fleet layer: the
        :class:`JobSpec` a :class:`repro.sim.FleetSimulator` or a
        :class:`repro.serve.ServeServer` takes."""
        return self.experiment.to_job_spec(iterations, **spec_kwargs)
