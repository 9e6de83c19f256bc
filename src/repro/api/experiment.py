"""Experiment composition: validate -> plan -> build (paper Section 6).

An :class:`Experiment` composes the five sub-specs of
:mod:`repro.api.specs` and enforces every cross-spec constraint eagerly,
so misconfigurations fail at construction with a
:class:`~repro.errors.ConfigurationError` rather than mid-training.

``plan()`` runs the paper's *pre-training* decisions without building any
engine: the Section 3 strategy chain over the placement-derived
:class:`~repro.parallel.ParallelLayout`, the Section 5.4 logging
feasibility calculus, the Section 5.3 selective-logging grouping under a
storage budget, and the checkpoint layout.  The returned
:class:`ExecutionPlan` is inspectable (``describe()``) and deterministic:
the same specs always produce the same plan.

``build()`` lowers the plan into a live :class:`repro.api.Session`;
``to_job_spec()`` lowers the same specs into a
:class:`repro.jobs.JobSpec` for fleet scheduling instead, and
``from_job_spec()`` is its inverse: how a placed :class:`repro.jobs.Job`
gets back onto the same validate -> plan -> build path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import lru_cache

from repro.api.specs import (
    ClusterSpec,
    DataSpec,
    FaultToleranceSpec,
    ModelSpec,
    ParallelismSpec,
)
from repro.chaos.evaluate import method_for_strategy
from repro.cluster.topology import Cluster
from repro.core.selective import (
    PipelineProfile,
    PlanResult,
    SelectiveLoggingPlanner,
)
from repro.core.strategy import (
    MECHANISMS_BY_KIND,
    FTStrategy,
    LoggingFeasibility,
    choose_strategy,
    logging_worth_it,
)
from repro.errors import ConfigurationError
from repro.jobs.spec import JobSpec
from repro.parallel.hybrid import ParallelLayout, StagePlacement
from repro.parallel.instructions import ScheduleProgram
from repro.parallel.programs import build_program
from repro.parallel.schedules import simulate_program
from repro.sim.costmodel import CostModel, HardwareConfig
from repro.sim.workloads import Workload

__all__ = ["Experiment", "ExecutionPlan"]

GB = 1e9
#: float64 numpy tensors everywhere in the substrate
DTYPE_BYTES = 8
#: engine-default per-micro-batch stage compute times (seconds), matching
#: PipelineEngine's defaults so planned and simulated timing agree
DEFAULT_FWD_TIME = 1e-3
DEFAULT_BWD_TIME = 2e-3
#: optimizer state multiplier over parameter bytes (params + slots)
_STATE_MULTIPLIER = {
    "sgd": 1, "sgd_momentum": 2, "adam": 3, "adamw": 3, "lamb": 3,
    "amsgrad": 4,
}

#: what a fleet decides for every job whatever the experiment says: where
#: it runs, which failures hit it, where its checkpoints live, that it
#: re-baselines after every recovery and that a PP model is at least one
#: hidden layer per stage deep (``cluster`` as a whole as well)
_FLEET_DECIDES = frozenset({
    "placement", "scenario", "scenario_seed",
    "checkpoint_after_recovery", "checkpoint_prefix", "depth",
})


@lru_cache(maxsize=256)
def _default_makespan(program: ScheduleProgram, comm_time: float) -> float:
    """Simulated iteration time of ``program`` at the engine-default
    stage times, priced once per (program, comm_time) per process.  Only
    the float is kept: a ``ScheduleTiming`` is mutable and not shared."""
    p = program.num_stages
    return simulate_program(
        program, [DEFAULT_FWD_TIME] * p, [DEFAULT_BWD_TIME] * p, comm_time
    ).iteration_time


@dataclass(frozen=True)
class ExecutionPlan:
    """Everything decided before training starts, in inspectable form.

    >>> from repro.api import (ClusterSpec, Experiment, ModelSpec,
    ...                        ParallelismSpec)
    >>> plan = Experiment(
    ...     model=ModelSpec(family="mlp", dim=4, hidden_dim=8),
    ...     cluster=ClusterSpec(num_machines=2, devices_per_machine=1),
    ...     parallelism=ParallelismSpec(kind="pp", num_workers=2,
    ...                                 num_microbatches=2),
    ... ).plan()
    >>> (plan.engine_kind, plan.strategy.value)
    ('pp', 'logging')
    >>> "strategy:" in plan.describe()
    True
    """

    #: the composed spec this plan was derived from (None for analytic
    #: Table-2 workload plans, see :mod:`repro.api.workloads`)
    experiment: "Experiment | None"
    engine_kind: str
    placement: tuple[tuple[int, int], ...]
    partition_sizes: tuple[int, ...] | None
    layout: ParallelLayout
    #: an :class:`FTStrategy` member, or the name of a custom-registered
    #: recovery policy when the spec asked for one explicitly
    strategy: FTStrategy | str
    #: "auto" when the Section 3 chain chose, "explicit" when the spec did
    strategy_source: str
    feasibility: LoggingFeasibility | None
    #: per-iteration bytes the busiest sender must log (0 for DP)
    predicted_log_bytes_per_iteration: float
    model_state_bytes: float
    checkpoint_prefix: str
    checkpoint_interval: int
    incremental_checkpoints: bool
    #: pipeline schedule program the engine will execute ("1f1b" unless
    #: the spec asked for another registered schedule)
    schedule: str = "1f1b"
    #: virtual pipeline stages per worker (1 = flat; >1 = interleaved,
    #: ``partition_sizes`` then lists one entry per *chunk*)
    virtual_stages: int = 1
    #: Section 5.3 grouping under ``log_budget_bytes`` (logging plans only)
    selective: PlanResult | None = None
    workload_name: str | None = None
    #: named :mod:`repro.chaos` scenario the run will sample (if any)
    scenario: str | None = None
    #: analytic machine-crash rate of the scenario on this cluster
    predicted_failure_rate_per_hour: float | None = None
    #: expected crashes over one scenario horizon
    expected_failures: float | None = None
    #: expectation of :attr:`~repro.chaos.GoodputResult.goodput_fraction`
    #: over a default-length run under the scenario, from the same
    #: ``CostModel.pricing`` ``autoplan`` scores with: ``None`` for a
    #: custom policy the cost model does not price
    expected_goodput_fraction: float | None = None
    #: "user" for hand-composed plans; ``autoplan:<searcher>:<scenario>``
    #: when :meth:`Experiment.autoplan` chose the configuration
    provenance: str = "user"

    @property
    def machines(self) -> tuple[int, ...]:
        return tuple(sorted({m for m, _ in self.placement}))

    def describe(self) -> str:
        """Human-readable plan summary (the ``repro plan`` output core)."""
        name = self.workload_name or (
            self.experiment.name if self.experiment else "experiment"
        )
        lines = [
            f"plan for {name!r}:",
            f"  engine:          {self.engine_kind} "
            f"({len(self.placement)} workers on machines "
            f"{list(self.machines)})",
            f"  strategy:        "
            f"{getattr(self.strategy, 'value', self.strategy)} "
            f"({self.strategy_source})",
        ]
        if self.engine_kind == "pp":
            lines.append(
                f"  schedule:        {self.schedule}"
                + (
                    f" ({self.virtual_stages} virtual stages/worker)"
                    if self.virtual_stages > 1 else ""
                )
            )
        lines += [
            f"  checkpoints:     every {self.checkpoint_interval} "
            f"iterations under {self.checkpoint_prefix!r}"
            + (" (incremental)" if self.incremental_checkpoints else ""),
            f"  model state:     {self.model_state_bytes / GB:.3g} GB",
            "  instrumentation: repro.obs spans on trainer + engine "
            "hot paths (attach via Session.run(recorder=...))",
        ]
        if self.feasibility is not None:
            f = self.feasibility
            lines.append(
                f"  log volume:      "
                f"{self.predicted_log_bytes_per_iteration / GB:.3g} GB/iter "
                f"(copy {f.copy_time * 1e3:.2f} ms vs bubble "
                f"{f.bubble_time * 1e3:.2f} ms -> "
                f"{'worth it' if f.worth_it else 'not worth it'}: "
                f"{f.reason})"
            )
        if self.selective is not None:
            groups = "+".join(
                str(len(g)) for g in self.selective.plan.groups
            )
            lines.append(
                f"  selective log:   {self.selective.plan.num_groups} "
                f"groups [{groups}], "
                f"{self.selective.storage_bytes / GB:.1f} GB stored, "
                f"E[recovery] {self.selective.expected_recovery_time:.3f} "
                "s/lost-iteration"
            )
        if self.scenario is not None:
            cluster_machines = (
                self.experiment.cluster.num_machines
                if self.experiment is not None else len(self.machines)
            )
            goodput = (
                f"not priced for policy {self.strategy!r}"
                if self.expected_goodput_fraction is None else
                f"expected goodput ~{self.expected_goodput_fraction:.0%} "
                "of failure-free"
            )
            lines.append(
                f"  scenario:        {self.scenario} "
                f"(~{self.predicted_failure_rate_per_hour * 100:.1f} "
                f"failures/100h on {cluster_machines} machines, "
                f"E[{self.expected_failures:.1f}] per horizon; {goodput})"
            )
        if self.provenance != "user":
            lines.append(f"  provenance:      {self.provenance}")
        return "\n".join(lines)


@dataclass(frozen=True)
class Experiment:
    """One declarative, validated experiment over the whole stack.

    Misconfigurations fail at composition time; ``plan()`` is a pure
    function of the specs; ``build()`` yields a live
    :class:`~repro.api.Session` whose traces are bitwise-equal to
    hand-wiring the engines.

    >>> from repro.api import ModelSpec, ParallelismSpec
    >>> exp = Experiment(
    ...     name="doc",
    ...     model=ModelSpec(family="mlp", dim=4, hidden_dim=8, seed=1),
    ...     parallelism=ParallelismSpec(kind="dp", num_workers=2),
    ... )
    >>> exp.plan().engine_kind
    'dp'
    >>> exp.with_(name="doc2").name        # functional update
    'doc2'
    >>> Experiment(model=ModelSpec(family="bert"))  # doctest: +ELLIPSIS
    Traceback (most recent call last):
        ...
    repro.errors.ConfigurationError: data kind 'classification' feeds ...
    """

    name: str = "experiment"
    model: ModelSpec = field(default_factory=ModelSpec)
    data: DataSpec = field(default_factory=DataSpec)
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    parallelism: ParallelismSpec = field(default_factory=ParallelismSpec)
    fault_tolerance: FaultToleranceSpec = field(
        default_factory=FaultToleranceSpec
    )

    def __post_init__(self) -> None:
        self.validate()

    # -- eager cross-spec validation --------------------------------------
    def validate(self) -> "Experiment":
        model, data, par = self.model, self.data, self.parallelism
        if model.family not in data.compatible_families():
            raise ConfigurationError(
                f"data kind {data.kind!r} feeds model families "
                f"{data.compatible_families()}, not {model.family!r}"
            )
        placement = par.resolve_placement(self.cluster)
        if par.kind == "fsdp" and len({m for m, _ in placement}) < 2:
            raise ConfigurationError(
                "sharded replication mirrors need >= 2 machines in the "
                "placement"
            )
        if par.kind == "fsdp" and self.fault_tolerance.incremental_checkpoints:
            raise ConfigurationError(
                "incremental_checkpoints need per-shard dirty-key reports, "
                "which sharded (fsdp) workers do not keep; use full "
                "checkpoints"
            )
        if par.kind == "pp":
            if data.batch_size < par.num_microbatches:
                raise ConfigurationError(
                    f"batch_size ({data.batch_size}) must cover "
                    f"num_microbatches ({par.num_microbatches})"
                )
            num_layers = model.num_partitionable_layers()
            v = par.resolved_virtual_stages()
            if par.partition_sizes is not None:
                if sum(par.partition_sizes) != num_layers:
                    raise ConfigurationError(
                        f"partition_sizes sum to "
                        f"{sum(par.partition_sizes)} but the "
                        f"{model.family} model has {num_layers} layers"
                    )
            elif num_layers < par.num_workers * v:
                raise ConfigurationError(
                    f"cannot split {num_layers} layers over "
                    f"{par.num_workers} pipeline stages"
                    + (f" x {v} virtual stages" if v > 1 else "")
                )
            # schedule-shape errors (e.g. interleaved needs m % p == 0)
            # surface here, on the shared program the estimate prices
            build_program(
                par.schedule, par.num_workers, par.num_microbatches, v
            )
        strategy = self.fault_tolerance.strategy
        allowed = MECHANISMS_BY_KIND[par.kind]
        # a custom-registered policy's engine compatibility is its own
        # call, checked when the trainer is built
        if strategy in tuple(FTStrategy) and strategy not in allowed:
            raise ConfigurationError(
                f"strategy {strategy!r} cannot protect {par.kind!r} "
                f"parallelism, which takes {[s.value for s in allowed]}"
            )
        return self

    # -- derived views ----------------------------------------------------
    def resolved_placement(self) -> tuple[tuple[int, int], ...]:
        return self.parallelism.resolve_placement(self.cluster)

    def resolved_partition_sizes(self) -> tuple[int, ...] | None:
        """Pipeline layer counts per chunk (balanced when unspecified).

        One entry per stage for flat schedules; with virtual stages the
        model is cut into ``num_workers * virtual_stages`` chunks and
        chunk ``c`` lives on stage ``c % num_workers``.
        """
        if self.parallelism.kind != "pp":
            return None
        if self.parallelism.partition_sizes is not None:
            return tuple(self.parallelism.partition_sizes)
        chunks = (
            self.parallelism.num_workers
            * self.parallelism.resolved_virtual_stages()
        )
        layers = self.model.num_partitionable_layers()
        base, rem = divmod(layers, chunks)
        return tuple(base + 1 if c < rem else base for c in range(chunks))

    def derive_layout(self) -> ParallelLayout:
        """Placement as the Section 3 replica/stage question."""
        placement = self.resolved_placement()
        if self.parallelism.kind == "pp":
            stages = [
                StagePlacement(sid, ((machine,),))
                for sid, (machine, _) in enumerate(placement)
            ]
        else:
            # DP replicas / FSDP mirror-holders: one replica per worker
            stages = [
                StagePlacement(0, tuple((m,) for m, _ in placement))
            ]
        return ParallelLayout(stages=list(stages)).validate()

    # -- the plan ---------------------------------------------------------
    @property
    def _iteration_time_estimate(self) -> float:
        """Engine-default iteration time: one forward + backward for dp
        and fsdp, the schedule makespan for pp — the timing the logging
        calculus compares the PCIe copy against.  Priced once per pipeline
        shape, not per experiment (cadence / degree / budget variants
        share it): the Section 5.4 verdict and :meth:`to_workload` read
        it."""
        par = self.parallelism
        if par.kind != "pp":
            return DEFAULT_FWD_TIME + DEFAULT_BWD_TIME
        program = build_program(
            par.schedule,
            par.num_workers,
            par.num_microbatches,
            par.resolved_virtual_stages(),
        )
        return _default_makespan(program, par.comm_time)

    def _predicted_log_bytes(self) -> float:
        """Busiest sender's per-iteration log volume (Section 5.4).

        Per micro-batch a worker sends one activation forward and one
        gradient backward *per model chunk it hosts* (the two pipeline
        ends send one fewer; the bound ignores that).
        """
        par, data = self.parallelism, self.data
        if par.kind != "pp":
            return 0.0
        micro = max(1, data.batch_size // par.num_microbatches)
        elems = self.model.boundary_elements(micro)
        sends = 2.0 * par.resolved_virtual_stages()
        return sends * par.num_microbatches * elems * DTYPE_BYTES

    def _logging_feasibility(self) -> LoggingFeasibility:
        """The Section 5.4 verdict for this (pipeline) experiment.

        ``v`` chunks per worker cut the bubble as if there were ``v``
        times the micro-batches — ``(p-1)/(v*m+p-1)`` of the iteration —
        while multiplying what has to be copied inside it.
        """
        par = self.parallelism
        return logging_worth_it(
            self._predicted_log_bytes(),
            self._iteration_time_estimate,
            par.num_workers,
            par.num_microbatches * par.resolved_virtual_stages(),
            self.cluster.bandwidth_model().pcie,
            model_state_bytes=self._model_state_bytes(),
        )

    def _model_state_bytes(self) -> float:
        param_bytes = self.model.param_elements() * DTYPE_BYTES
        return param_bytes * _STATE_MULTIPLIER[self.model.optimizer]

    def plan(self) -> ExecutionPlan:
        """Run every pre-training decision; pure function of the specs."""
        self.validate()
        par, ft = self.parallelism, self.fault_tolerance
        placement = self.resolved_placement()
        layout = self.derive_layout()
        state_bytes = self._model_state_bytes()
        log_bytes = self._predicted_log_bytes()
        virtual_stages = par.resolved_virtual_stages() if par.kind == "pp" else 1
        feasibility = self._logging_feasibility() if par.kind == "pp" else None
        if ft.strategy == "auto":
            strategy = choose_strategy(
                layout, feasibility,
                optimizer_name=self.model.table1_optimizer,
            )
            source = "auto"
        else:
            try:
                strategy = FTStrategy(ft.strategy)
            except ValueError:
                strategy = ft.strategy  # custom-registered policy name
            source = "explicit"
            if (
                strategy is FTStrategy.REPLICATION
                and not layout.replication_covers_all_failures()
            ):
                raise ConfigurationError(
                    "strategy 'replication' needs a surviving replica for "
                    "every machine failure; spread workers over >= 2 "
                    "machines"
                )
        selective = None
        if (
            strategy is FTStrategy.LOGGING
            and ft.log_budget_bytes is not None
        ):
            selective = self._plan_selective_logging(placement, log_bytes)
        scenario_name = rate = expected = goodput = None
        chaos_spec = ft.resolve_scenario()
        if chaos_spec is not None:
            scenario_name = chaos_spec.name
            n = self.cluster.num_machines
            rate = chaos_spec.rate_per_hour(n)
            expected = chaos_spec.expected_failures(n)
            if isinstance(strategy, FTStrategy):  # a custom policy: None
                pricing = CostModel(
                    self.to_workload(), self.hardware_config()
                ).pricing(method_for_strategy(strategy),
                          ft.checkpoint_interval, ft.parallel_recovery_degree)
                # a crash loses half a cadence on average; undo loses none
                lost = (0 if strategy is FTStrategy.REPLICATION
                        else ft.checkpoint_interval / 2)
                useful = chaos_spec.default_iters * pricing.iteration_seconds
                goodput = useful / (useful + expected * pricing.recovery(lost))
        return ExecutionPlan(
            experiment=self,
            engine_kind=par.kind,
            placement=placement,
            partition_sizes=self.resolved_partition_sizes(),
            layout=layout,
            strategy=strategy,
            strategy_source=source,
            feasibility=feasibility,
            predicted_log_bytes_per_iteration=log_bytes,
            model_state_bytes=state_bytes,
            checkpoint_prefix=ft.checkpoint_prefix,
            checkpoint_interval=ft.checkpoint_interval,
            incremental_checkpoints=ft.incremental_checkpoints,
            schedule=par.schedule,
            virtual_stages=virtual_stages,
            selective=selective,
            scenario=scenario_name,
            predicted_failure_rate_per_hour=rate,
            expected_failures=expected,
            expected_goodput_fraction=goodput,
        )

    def hardware_config(self) -> HardwareConfig:
        """The paper's testbed, with the join the engines charge."""
        return HardwareConfig(
            replacement_join_time=self.fault_tolerance.replacement_join_time)

    def to_workload(self) -> Workload:
        """This experiment as a synthetic :class:`~repro.sim.Workload`
        whose cost-model view (state bytes, boundary bytes, iteration
        time) matches the float64 engines: what ``plan()`` and
        ``autoplan`` price.  It has no iteration budget; a scenario's
        horizon maps one on."""
        model, data, par = self.model, self.data, self.parallelism
        pp = par.kind == "pp"
        return Workload(
            name=self.name,
            dataset="synthetic",
            batch_size=data.batch_size,
            # float64 tensors expressed in the Workload's 4-byte units
            num_params=float(model.param_elements()) * 2.0,
            parallelism="PP" if pp else "DP",
            num_machines=len({m for m, _ in self.resolved_placement()}),
            gpus_per_machine=self.cluster.devices_per_machine,
            optimizer=model.optimizer,
            state_multiplier=_STATE_MULTIPLIER[model.optimizer],
            num_stages=par.num_workers if pp else 1,
            num_microbatches=par.num_microbatches if pp else 1,
            # boundary_bytes = micro * seq_len * hidden * 4; encode the
            # per-element float64 width as seq_len=2 so it matches
            # boundary_elements(micro) * 8 exactly
            seq_len=2,
            hidden_size=model.boundary_elements(1) if pp else 0,
            experiment_iteration_time=self._iteration_time_estimate,
            checkpoint_interval_iters=self.fault_tolerance.checkpoint_interval,
        )

    def _plan_selective_logging(
        self,
        placement: tuple[tuple[int, int], ...],
        log_bytes: float,
    ) -> PlanResult:
        """Section 5.3 grouping under the spec's storage budget."""
        par = self.parallelism
        machine_order: list[int] = []
        stages_per_machine: dict[int, int] = {}
        for machine, _ in placement:
            if machine not in stages_per_machine:
                machine_order.append(machine)
            stages_per_machine[machine] = (
                stages_per_machine.get(machine, 0) + 1
            )
        per_stage = DEFAULT_FWD_TIME + DEFAULT_BWD_TIME
        compute = tuple(
            par.num_microbatches * stages_per_machine[m] * per_stage
            for m in machine_order
        )
        boundaries = tuple(
            [log_bytes] * (len(machine_order) - 1)
        )
        planner = SelectiveLoggingPlanner(
            PipelineProfile(compute, boundaries),
            checkpoint_interval=self.fault_tolerance.checkpoint_interval,
            network_bandwidth=self.cluster.bandwidth_model().network,
        )
        return planner.plan(self.fault_tolerance.log_budget_bytes)

    # -- lowering ---------------------------------------------------------
    def build(self, cluster=None, clock=None) -> "Session":
        """Materialize cluster + engine + trainer behind a Session."""
        from repro.api.session import Session

        return Session(self, self.plan(), cluster=cluster, clock=clock)

    def to_job_spec(
        self,
        iterations: int,
        priority: int = 0,
        elastic: bool = False,
        min_workers: int = 1,
        arrival: int = 0,
    ) -> JobSpec:
        """Lower the spec into a fleet-schedulable :class:`JobSpec`.

        The jobs layer rebuilds the experiment from the spec on whatever
        slots the scheduler grants (:meth:`from_job_spec`), so only what
        survives that trip is accepted: the deterministic MLP
        classification task over DP or PP gangs, with every field a
        :class:`JobSpec` has no slot for at the value the fleet runs.
        ``cluster`` and the ``_FLEET_DECIDES`` fields (placement, failure
        scenario, checkpoint prefix, re-baselining, the PP depth floor)
        are the fleet's to decide and pass whatever they say.
        """
        model, data, par = self.model, self.data, self.parallelism
        if model.family != "mlp" or data.kind != "classification":
            raise ConfigurationError(
                "fleet submission supports the MLP classification "
                f"workload; got model {model.family!r} over data "
                f"{data.kind!r}"
            )
        if par.kind not in ("dp", "pp"):
            raise ConfigurationError(
                f"fleet submission supports 'dp' and 'pp' gangs, "
                f"got {par.kind!r}"
            )
        ft = self.fault_tolerance
        spec = JobSpec(
            name=self.name,
            parallelism=par.kind,
            num_workers=par.num_workers,
            iterations=iterations,
            priority=priority,
            elastic=elastic,
            min_workers=min_workers,
            arrival=arrival,
            batch_size=data.batch_size,
            checkpoint_interval=ft.checkpoint_interval,
            strategy=ft.strategy,
            incremental_checkpoints=ft.incremental_checkpoints,
            dim=model.dim,
            hidden_dim=model.hidden_dim,
            num_classes=model.num_classes,
            depth=model.depth,
            num_microbatches=par.num_microbatches,
            seed=model.seed,
            task_seed=data.seed,
            optimizer=model.optimizer,
            lr=model.lr,
            momentum=model.momentum,
        )
        # the two constructor calls are the only JobSpec <-> Experiment
        # mapping: a field that comes back different has no slot
        runs_as = self._specs_of(spec, self.resolved_placement())
        dropped = [
            f"{attr}.{f.name}={mine!r} (the fleet runs {theirs!r})"
            for attr, lifted in runs_as.items() if attr != "name"
            for f in fields(lifted)
            if f.name not in _FLEET_DECIDES
            and (mine := getattr(getattr(self, attr), f.name))
            != (theirs := getattr(lifted, f.name))
        ]
        if dropped:
            raise ConfigurationError(
                "fleet submission cannot express " + ", ".join(dropped)
            )
        return spec

    @staticmethod
    def _specs_of(spec: JobSpec, placement) -> dict:
        """Every :class:`Experiment` field but ``cluster`` that ``spec``
        stands for on ``placement`` (see :meth:`from_job_spec`)."""
        pp = spec.parallelism == "pp"
        lr = spec.lr
        if spec.optimizer is None and lr is None:
            lr = 0.01 if pp else 0.05
        return dict(
            name=spec.name,
            model=ModelSpec(
                family="mlp", dim=spec.dim, hidden_dim=spec.hidden_dim,
                num_classes=spec.num_classes,
                depth=max(spec.depth, spec.num_workers) if pp else spec.depth,
                seed=spec.seed,
                optimizer=spec.optimizer or ("adam" if pp else "sgd_momentum"),
                lr=lr, momentum=spec.momentum,
            ),
            data=DataSpec(
                batch_size=spec.batch_size,
                seed=spec.seed if spec.task_seed is None else spec.task_seed,
            ),
            parallelism=ParallelismSpec(
                kind=spec.parallelism, num_workers=spec.num_workers,
                placement=tuple(placement),
                num_microbatches=spec.num_microbatches,
            ),
            fault_tolerance=FaultToleranceSpec(
                strategy=spec.strategy,
                checkpoint_interval=spec.checkpoint_interval,
                incremental_checkpoints=spec.incremental_checkpoints,
                checkpoint_after_recovery=True,
                checkpoint_prefix=f"ckpt/{spec.name}",
            ),
        )

    @classmethod
    def from_job_spec(
        cls,
        spec: JobSpec,
        placement: list[tuple[int, int]],
        cluster: Cluster,
    ) -> "Experiment":
        """Inverse of :meth:`to_job_spec`, onto slots a scheduler granted.

        ``cluster`` is the live shared cluster the slots belong to; its
        shape and bandwidths become the :class:`ClusterSpec`, so
        ``plan()`` runs the Section 3 chain on the *actual* placement.
        This is also the one home of the fleet layer's legacy defaults:
        ``optimizer=None`` means SGD-momentum at lr 0.05 for DP and Adam
        at lr 0.01 for PP, a PP model is at least one hidden layer per
        stage deep, checkpoints live under ``ckpt/<name>``, and every
        recovery re-baselines the tensor log because a shared cluster
        fails more than once.
        """
        bandwidth = cluster.bandwidth
        return cls(
            cluster=ClusterSpec(
                num_machines=cluster.num_machines,
                devices_per_machine=len(cluster.machines[0].devices),
                network_bw=bandwidth.network, nvlink_bw=bandwidth.nvlink,
                pcie_bw=bandwidth.pcie, latency=bandwidth.latency,
            ),
            **cls._specs_of(spec, placement),
        )

    def with_(self, **overrides) -> "Experiment":
        """Functional update (frozen dataclass convenience)."""
        return replace(self, **overrides)

    def autoplan(
        self,
        scenario: str | None = None,
        *,
        searcher: str = "auto",
        seed: int = 0,
        eval_seeds: int = 3,
        top_k: int = 5,
        validate_top_k: int = 0,
        validate_seeds: int = 2,
        validate_iterations: int = 60,
        **space_options,
    ):
        """Search (parallelism x recovery x cadence) around this spec.

        Treats this experiment as the anchor of an
        :class:`~repro.plan.ExperimentSearchSpace` — its model, data,
        and cluster are fixed while parallelism kind/degree,
        recovery strategy, checkpoint cadence, parallel-replay degree,
        and selective-logging budget are searched — and returns the
        ranked, deterministic :class:`~repro.plan.PlanSearchReport`.
        ``scenario`` defaults to the spec's own chaos scenario (or
        ``"steady_mtbf"``); ``validate_top_k > 0`` confirms the ranking
        with engine-measured paired runs.  Extra keyword arguments are
        forwarded to the search space (``intervals=...``,
        ``kinds=...``, ...).  The winning :class:`ExecutionPlan` is
        ``space.to_experiment(report.winner).plan()`` stamped with an
        ``autoplan:...`` provenance — see
        :meth:`repro.plan.ExperimentSearchSpace.winning_plan`.

        >>> from repro.api import ClusterSpec, ModelSpec, ParallelismSpec
        >>> exp = Experiment(
        ...     model=ModelSpec(family="mlp", dim=4, hidden_dim=8),
        ...     cluster=ClusterSpec(num_machines=2, devices_per_machine=1),
        ...     parallelism=ParallelismSpec(kind="dp", num_workers=2))
        >>> report = exp.autoplan(eval_seeds=1, top_k=2,
        ...                       kinds=("dp",), intervals=(10, 50))
        >>> report.scenario
        'steady_mtbf'
        >>> (report.winner_score.goodput_samples_per_sec
        ...  >= report.baseline.goodput_samples_per_sec)
        True
        """
        from repro.plan import ExperimentSearchSpace, autoplan

        if scenario is None:
            spec = self.fault_tolerance.resolve_scenario()
            scenario = spec.name if spec is not None else "steady_mtbf"
        space = ExperimentSearchSpace(self, **space_options)
        return autoplan(
            space, scenario, searcher=searcher, seed=seed,
            eval_seeds=eval_seeds, top_k=top_k,
            validate_top_k=validate_top_k, validate_seeds=validate_seeds,
            validate_iterations=validate_iterations,
        )
