"""Declarative experiment sub-specs (paper Section 6, Usage).

The paper's usability claim — "a user only needs to provide a UDF to
train one iteration and specify fault tolerance and training
configurations" — becomes five small frozen dataclasses:

* :class:`ModelSpec`   — which network and optimizer (Table 2 families);
* :class:`DataSpec`    — which synthetic task feeds it;
* :class:`ClusterSpec` — the simulated testbed (Section 7 defaults);
* :class:`ParallelismSpec` — DP / PP / sharded-DP layout (Sections 2, 8);
* :class:`FaultToleranceSpec` — the fault-tolerance configuration
  (Sections 3-5: strategy, checkpoint cadence, logging mode, parallel
  recovery degree).

Each spec validates its own fields eagerly in ``__post_init__``;
cross-spec constraints (model/task agreement, placement vs. cluster
bounds, strategy vs. parallelism) are enforced by
:class:`repro.api.Experiment` at composition time, so every
misconfiguration surfaces as a :class:`~repro.errors.ConfigurationError`
before any engine is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.cluster.topology import BandwidthModel, Cluster
from repro.core.policies import recovery_policy_names
from repro.core.replication import REPLACEMENT_JOIN_TIME
from repro.core.strategy import FTStrategy
from repro.core.tlog import GroupingPlan, LoggingMode
from repro.core.trainer import TrainerConfig
from repro.data import ClassificationTask, ImageTask, TokenTask
from repro.errors import ConfigurationError
from repro.models import make_bert, make_mlp, make_vit, make_wide_resnet
from repro.nn import CrossEntropyLoss, MSELoss
from repro.optim import (
    OPTIMIZER_FAMILIES,
    OPTIMIZER_TABLE1_NAMES,
    make_optimizer,
)

__all__ = [
    "ModelSpec",
    "DataSpec",
    "ClusterSpec",
    "ParallelismSpec",
    "FaultToleranceSpec",
]

GiB = 1024**3

MODEL_FAMILIES = ("mlp", "bert", "vit", "wide_resnet")
LOSSES = {"cross_entropy": CrossEntropyLoss, "mse": MSELoss}


@dataclass(frozen=True)
class ModelSpec:
    """Which network to train, and the optimizer updating it.

    The families are scaled-down instances of the paper's Table 2
    workloads; ``optimizer`` matters beyond numerics because strategy
    selection (Section 3) requires an *invertible* optimizer for
    update-undo (Table 1) before replication-based recovery applies.

    >>> spec = ModelSpec(family="mlp", dim=4, hidden_dim=8, num_classes=2)
    >>> model = spec.build()            # deterministic seeded instance
    >>> spec.param_elements() == sum(
    ...     int(p.data.size) for _, p in model.named_parameters())
    True
    >>> ModelSpec(family="resnet-9000")
    Traceback (most recent call last):
        ...
    repro.errors.ConfigurationError: unknown model family 'resnet-9000'; \
known: ('mlp', 'bert', 'vit', 'wide_resnet')
    """

    family: str = "mlp"
    #: hidden width (MLP hidden input dim / transformer model dim)
    dim: int = 16
    #: MLP hidden layer width
    hidden_dim: int = 32
    num_classes: int = 4
    #: hidden layers (mlp) / encoder blocks (bert, vit) / blocks per
    #: group (wide_resnet)
    depth: int = 2
    seed: int = 0
    # -- transformer knobs (bert / vit) -----------------------------------
    vocab_size: int = 32
    max_len: int = 8
    num_heads: int = 2
    # -- image knobs (vit / wide_resnet) ----------------------------------
    image_size: int = 16
    patch: int = 8
    in_channels: int = 3
    base_channels: int = 16
    # -- optimizer --------------------------------------------------------
    optimizer: str = "sgd_momentum"
    lr: float | None = None
    momentum: float = 0.9

    def __post_init__(self) -> None:
        if self.family not in MODEL_FAMILIES:
            raise ConfigurationError(
                f"unknown model family {self.family!r}; "
                f"known: {MODEL_FAMILIES}"
            )
        if self.optimizer not in OPTIMIZER_FAMILIES:
            raise ConfigurationError(
                f"unknown optimizer family {self.optimizer!r}; "
                f"known: {sorted(OPTIMIZER_FAMILIES)}"
            )
        for name in ("dim", "hidden_dim", "num_classes", "depth"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.family in ("bert", "vit") and self.dim % self.num_heads:
            raise ConfigurationError(
                f"dim ({self.dim}) must divide evenly into "
                f"num_heads ({self.num_heads}) attention heads"
            )
        if self.family == "vit" and self.image_size % self.patch:
            raise ConfigurationError(
                f"image_size ({self.image_size}) must be a multiple of "
                f"patch ({self.patch})"
            )

    @property
    def table1_optimizer(self) -> str:
        """Table-1 operator-universe row for invertibility checks."""
        return OPTIMIZER_TABLE1_NAMES[self.optimizer]

    # -- builders ---------------------------------------------------------
    def build(self):
        """Fresh deterministic model instance (all replicas identical)."""
        if self.family == "mlp":
            return make_mlp(self.dim, self.hidden_dim, self.num_classes,
                            depth=self.depth, seed=self.seed)
        if self.family == "bert":
            return make_bert(
                vocab_size=self.vocab_size, max_len=self.max_len,
                dim=self.dim, depth=self.depth, num_heads=self.num_heads,
                seed=self.seed,
            )
        if self.family == "vit":
            return make_vit(
                image_size=self.image_size, patch=self.patch, dim=self.dim,
                depth=self.depth, num_heads=self.num_heads,
                num_classes=self.num_classes, in_channels=self.in_channels,
                seed=self.seed,
            )
        return make_wide_resnet(
            num_classes=self.num_classes, base_channels=self.base_channels,
            blocks_per_group=self.depth, in_channels=self.in_channels,
            seed=self.seed,
        )

    def build_optimizer(self, params):
        return make_optimizer(
            self.optimizer, params, lr=self.lr, momentum=self.momentum
        )

    def num_partitionable_layers(self) -> int:
        """Length of the flat Sequential (pipeline partitioning unit)."""
        return _model_metrics(self)[0]

    def param_elements(self) -> int:
        """Total parameter element count (planning-time sizing)."""
        return _model_metrics(self)[1]

    def boundary_elements(self, micro_batch_size: int) -> int:
        """Per-micro-batch element count of one inter-stage tensor.

        Feeds the Section 5.4 logging calculus: for transformers this is
        the paper's micro_batch x seq_len x hidden_size; for MLPs the
        hidden width; image models use their widest activation map.
        """
        if self.family == "bert":
            return micro_batch_size * self.max_len * self.dim
        if self.family == "vit":
            patches = (self.image_size // self.patch) ** 2
            return micro_batch_size * patches * self.dim
        if self.family == "wide_resnet":
            return (micro_batch_size * self.base_channels
                    * self.image_size * self.image_size)
        return micro_batch_size * self.hidden_dim


@lru_cache(maxsize=256)
def _model_metrics(spec: ModelSpec) -> tuple[int, int]:
    """(num_layers, param_elements) of one built instance, cached.

    Planning (``Experiment.plan``/``validate``) needs these repeatedly;
    the cache keeps the plan path from re-allocating full seeded models
    just to count layers and bytes (specs are frozen, so safe keys).
    """
    model = spec.build()
    elements = sum(
        int(p.data.size) for _, p in model.named_parameters()
    )
    return len(model), elements


@dataclass(frozen=True)
class DataSpec:
    """Synthetic task feeding the model (deterministic, replayable).

    Geometry (feature dim, classes, sequence length, image size) comes
    from the :class:`ModelSpec` so the two can never disagree; the task
    kind itself is cross-checked against the model family by
    ``Experiment.validate``.

    >>> task = DataSpec(kind="classification", batch_size=8).build(
    ...     ModelSpec(family="mlp", dim=4))
    >>> task.batch(iteration=0)[0].shape   # deterministic synthetic data
    (8, 4)
    >>> DataSpec(kind="tokens").compatible_families()
    ('bert',)
    """

    kind: str = "classification"  # classification | tokens | images
    batch_size: int = 32
    seed: int = 0
    noise: float = 0.5
    loss: str = "cross_entropy"

    def __post_init__(self) -> None:
        if self.kind not in ("classification", "tokens", "images"):
            raise ConfigurationError(
                f"unknown data kind {self.kind!r}; expected "
                "'classification', 'tokens', or 'images'"
            )
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if self.loss not in LOSSES:
            raise ConfigurationError(
                f"unknown loss {self.loss!r}; known: {sorted(LOSSES)}"
            )

    def compatible_families(self) -> tuple[str, ...]:
        return {
            "classification": ("mlp",),
            "tokens": ("bert",),
            "images": ("vit", "wide_resnet"),
        }[self.kind]

    def build(self, model: ModelSpec):
        if self.kind == "classification":
            return ClassificationTask(
                dim=model.dim, num_classes=model.num_classes,
                batch_size=self.batch_size, seed=self.seed,
                noise=self.noise,
            )
        if self.kind == "tokens":
            return TokenTask(
                vocab_size=model.vocab_size, seq_len=model.max_len,
                batch_size=self.batch_size, seed=self.seed,
            )
        return ImageTask(
            image_size=model.image_size, num_classes=model.num_classes,
            batch_size=self.batch_size, in_channels=model.in_channels,
            seed=self.seed, noise=self.noise,
        )

    def loss_factory(self):
        return LOSSES[self.loss]


@dataclass(frozen=True)
class ClusterSpec:
    """The simulated testbed (Section 7 defaults: DGX-2-class machines).

    Bandwidth overrides of ``None`` keep the paper's numbers (40 Gbps
    Ethernet, NVLink intra-machine, PCIe 3.0 x16 GPU-CPU).

    >>> spec = ClusterSpec(num_machines=4, devices_per_machine=2)
    >>> spec.num_slots
    8
    >>> spec.build().num_machines      # a live simulated cluster
    4
    """

    num_machines: int = 2
    devices_per_machine: int = 2
    device_memory_gib: int = 32
    network_bw: float | None = None
    nvlink_bw: float | None = None
    pcie_bw: float | None = None
    latency: float | None = None

    def __post_init__(self) -> None:
        if self.num_machines < 1:
            raise ConfigurationError("num_machines must be >= 1")
        if self.devices_per_machine < 1:
            raise ConfigurationError("devices_per_machine must be >= 1")
        if self.device_memory_gib < 1:
            raise ConfigurationError("device_memory_gib must be >= 1")
        for name in ("network_bw", "nvlink_bw", "pcie_bw"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigurationError(f"{name} must be > 0 (or None)")
        if self.latency is not None and self.latency < 0:
            raise ConfigurationError("latency must be >= 0 (or None)")

    @property
    def num_slots(self) -> int:
        return self.num_machines * self.devices_per_machine

    def bandwidth_model(self) -> BandwidthModel:
        defaults = BandwidthModel()
        return BandwidthModel(
            network=(
                defaults.network if self.network_bw is None
                else self.network_bw
            ),
            nvlink=(
                defaults.nvlink if self.nvlink_bw is None
                else self.nvlink_bw
            ),
            pcie=defaults.pcie if self.pcie_bw is None else self.pcie_bw,
            latency=(
                defaults.latency if self.latency is None else self.latency
            ),
        )

    def build(self) -> Cluster:
        return Cluster(
            num_machines=self.num_machines,
            devices_per_machine=self.devices_per_machine,
            device_memory=self.device_memory_gib * GiB,
            bandwidth=self.bandwidth_model(),
        )


@dataclass(frozen=True)
class ParallelismSpec:
    """How workers map onto the cluster (Sections 2.1 and 8).

    ``kind="dp"`` replicates the model (replication-based recovery
    territory), ``"pp"`` pipelines it across machines (logging-based
    recovery territory), ``"fsdp"`` shards it with cross-machine mirrors
    (the Section 8 extension).  ``placement=None`` block-fills machines
    device-major: rank r -> (r // devices_per_machine, r % ...).

    >>> par = ParallelismSpec(kind="dp", num_workers=4)
    >>> par.resolve_placement(ClusterSpec(num_machines=2,
    ...                                   devices_per_machine=2))
    ((0, 0), (0, 1), (1, 0), (1, 1))
    """

    kind: str = "dp"
    num_workers: int = 4
    placement: tuple[tuple[int, int], ...] | None = None
    # -- pipeline-only knobs ----------------------------------------------
    num_microbatches: int = 4
    partition_sizes: tuple[int, ...] | None = None
    #: any schedule registered via :func:`repro.parallel.register_schedule`
    schedule: str = "1f1b"
    #: model chunks per pipeline stage (Megatron-style interleaving); 0
    #: means "the schedule's default" (1 for flat schedules, 2 for
    #: interleaved_1f1b)
    virtual_stages: int = 0
    comm_time: float = 0.0

    def __post_init__(self) -> None:
        from repro.parallel.programs import schedule_names

        if self.kind not in ("dp", "pp", "fsdp"):
            raise ConfigurationError(
                f"unknown parallelism kind {self.kind!r}; expected "
                "'dp', 'pp', or 'fsdp'"
            )
        if self.num_workers < 1:
            raise ConfigurationError("num_workers must be >= 1")
        if self.kind == "fsdp" and self.num_workers < 2:
            raise ConfigurationError(
                "sharded replication needs >= 2 workers"
            )
        if self.num_microbatches < 1:
            raise ConfigurationError("num_microbatches must be >= 1")
        if self.schedule not in schedule_names():
            raise ConfigurationError(
                f"unknown schedule {self.schedule!r}; registered "
                f"schedules: {', '.join(schedule_names())}"
            )
        if self.virtual_stages < 0:
            raise ConfigurationError("virtual_stages must be >= 0")
        if self.virtual_stages > 1 and self.kind != "pp":
            raise ConfigurationError(
                "virtual_stages only applies to pipeline parallelism"
            )
        if (
            self.placement is not None
            and len(self.placement) != self.num_workers
        ):
            raise ConfigurationError(
                f"placement has {len(self.placement)} entries for "
                f"{self.num_workers} workers"
            )
        if self.partition_sizes is not None:
            if self.kind != "pp":
                raise ConfigurationError(
                    "partition_sizes only applies to pipeline parallelism"
                )
            if self.resolved_virtual_stages() > 1:
                raise ConfigurationError(
                    "explicit partition_sizes are unsupported with "
                    "virtual stages; layers are split into "
                    "num_workers * virtual_stages balanced chunks"
                )
            if len(self.partition_sizes) != self.num_workers:
                raise ConfigurationError(
                    f"partition_sizes has {len(self.partition_sizes)} "
                    f"stages for {self.num_workers} workers"
                )
            if any(s < 1 for s in self.partition_sizes):
                raise ConfigurationError("every partition size must be >= 1")

    def resolved_virtual_stages(self) -> int:
        """The effective chunk multiplier (0 -> the schedule's default).

        >>> ParallelismSpec(kind="pp").resolved_virtual_stages()
        1
        >>> ParallelismSpec(kind="pp", schedule="interleaved_1f1b",
        ...                 num_microbatches=2, num_workers=2,
        ...                 ).resolved_virtual_stages()
        2
        """
        from repro.parallel.programs import default_virtual_stages

        if self.virtual_stages > 0:
            return self.virtual_stages
        if self.kind != "pp":
            return 1
        return default_virtual_stages(self.schedule)

    def resolve_placement(
        self, cluster: ClusterSpec
    ) -> tuple[tuple[int, int], ...]:
        """Concrete ``(machine, device)`` per worker, bounds-checked."""
        if self.placement is None:
            if self.num_workers > cluster.num_slots:
                raise ConfigurationError(
                    f"{self.num_workers} workers do not fit on "
                    f"{cluster.num_machines}x{cluster.devices_per_machine} "
                    "devices"
                )
            d = cluster.devices_per_machine
            return tuple((r // d, r % d) for r in range(self.num_workers))
        for machine, dev in self.placement:
            if not 0 <= machine < cluster.num_machines:
                raise ConfigurationError(
                    f"placement machine {machine} outside cluster "
                    f"(0..{cluster.num_machines - 1})"
                )
            if not 0 <= dev < cluster.devices_per_machine:
                raise ConfigurationError(
                    f"placement device {dev} outside machine "
                    f"(0..{cluster.devices_per_machine - 1})"
                )
        return tuple(tuple(p) for p in self.placement)


@dataclass(frozen=True)
class FaultToleranceSpec:
    """The fault-tolerance configuration of the Section 6 usage story.

    ``strategy="auto"`` runs the paper's Section 3 decision chain at
    planning time; explicit :class:`FTStrategy` values are validated
    against the parallelism layout.  Checkpoint fields configure the
    always-on global checkpointing net; logging fields shape the tensor
    log (Section 5); ``parallel_recovery_degree`` enables parallel
    replay (Section 5.2).  ``scenario`` names a registered
    :mod:`repro.chaos` failure scenario: ``plan()`` then predicts the
    failure rate and expected goodput, and ``Session.run`` samples the
    scenario (seeded by ``scenario_seed``) whenever no explicit failure
    schedule is passed.

    >>> ft = FaultToleranceSpec(checkpoint_interval=50,
    ...                         scenario="steady_mtbf")
    >>> ft.to_trainer_config().checkpoint_interval
    50
    >>> ft.resolve_scenario().name
    'steady_mtbf'
    """

    strategy: str = "auto"
    #: named :mod:`repro.chaos` scenario (or a ScenarioSpec) driving
    #: stochastic failure injection; ``None`` = no injected failures
    scenario: object | None = None
    scenario_seed: int = 0
    #: re-baseline the tensor log (fresh checkpoint) after each logging
    #: recovery so later failures never need the crashed machine's
    #: records; ``None`` = enabled exactly when a scenario is set (the
    #: multi-failure regime that requires it)
    checkpoint_after_recovery: bool | None = None
    checkpoint_interval: int = 100
    checkpoint_at_start: bool = True
    parallel_recovery_degree: int = 1
    replacement_join_time: float = REPLACEMENT_JOIN_TIME
    incremental_checkpoints: bool = False
    incremental_full_every: int = 8
    pooled_messaging: bool = True
    logging_mode: str = "bubble"
    grouping: GroupingPlan | None = None
    #: selective-logging storage budget (Section 5.3); None = unplanned
    log_budget_bytes: float | None = None
    checkpoint_prefix: str = "ckpt"
    max_recoveries: int = 16

    def __post_init__(self) -> None:
        strategy = self.strategy
        if isinstance(strategy, FTStrategy):
            object.__setattr__(self, "strategy", strategy.value)
            strategy = strategy.value
        # "auto", the paper's three mechanisms, or any custom-registered
        # recovery policy (the repro.api extension point)
        valid = ("auto",) + tuple(recovery_policy_names())
        if strategy not in valid:
            raise ConfigurationError(
                f"unknown strategy {strategy!r}; expected one of {valid}"
            )
        try:
            LoggingMode(self.logging_mode)
        except ValueError:
            raise ConfigurationError(
                f"unknown logging mode {self.logging_mode!r}; expected "
                f"{[m.value for m in LoggingMode]}"
            ) from None
        if self.max_recoveries < 1:
            raise ConfigurationError("max_recoveries must be >= 1")
        if self.scenario is not None:
            # resolve eagerly so unknown names fail at composition time
            self.resolve_scenario()
        if self.log_budget_bytes is not None and self.log_budget_bytes < 0:
            raise ConfigurationError("log_budget_bytes must be >= 0")
        # interval/degree/full_every bounds match TrainerConfig; build one
        # eagerly so the two vocabularies can never drift
        self.to_trainer_config()

    def resolve_scenario(self):
        """The registered :class:`~repro.chaos.ScenarioSpec` (or None)."""
        if self.scenario is None:
            return None
        from repro.chaos import get_scenario

        return get_scenario(self.scenario)

    def to_trainer_config(self) -> TrainerConfig:
        """Lower into the trainer-level config (shared validation)."""
        return TrainerConfig(
            checkpoint_interval=self.checkpoint_interval,
            checkpoint_at_start=self.checkpoint_at_start,
            parallel_recovery_degree=self.parallel_recovery_degree,
            replacement_join_time=self.replacement_join_time,
            strategy=self.strategy,
            incremental_checkpoints=self.incremental_checkpoints,
            incremental_full_every=self.incremental_full_every,
            pooled_messaging=self.pooled_messaging,
            checkpoint_after_recovery=(
                self.scenario is not None
                if self.checkpoint_after_recovery is None
                else self.checkpoint_after_recovery
            ),
        )

    @property
    def logging_mode_enum(self) -> LoggingMode:
        return LoggingMode(self.logging_mode)
