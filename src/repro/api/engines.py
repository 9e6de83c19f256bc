"""One engine-construction entry point over the divergent constructors.

:class:`~repro.parallel.DataParallelEngine`,
:class:`~repro.parallel.PipelineEngine`, and
:class:`~repro.parallel.FSDPEngine` each grew their own constructor
shape; :func:`build_engine` normalizes all of them behind the
:class:`~repro.api.ExecutionPlan`, deriving every factory (model,
optimizer, loss, task) from the validated specs.  It is the only place
``src/repro`` calls an engine constructor — sessions and fleet jobs both
arrive here through ``Experiment.plan()`` (``tests/test_public_api.py``
keeps the census).
"""

from __future__ import annotations

from repro.api.experiment import ExecutionPlan
from repro.cluster.clock import SimClock
from repro.cluster.topology import Cluster
from repro.errors import ConfigurationError
from repro.parallel.data_parallel import DataParallelEngine
from repro.parallel.fsdp import FSDPEngine
from repro.parallel.pipeline import PipelineEngine

__all__ = ["build_engine"]


def build_engine(
    plan: ExecutionPlan,
    cluster: Cluster | None = None,
    clock: SimClock | None = None,
):
    """Construct the engine an :class:`ExecutionPlan` calls for.

    ``cluster`` defaults to a fresh one from the experiment's
    :class:`~repro.api.ClusterSpec`; pass an existing cluster (and
    clock) to share hardware with other jobs.

    >>> from repro.api import Experiment, ModelSpec, ParallelismSpec
    >>> plan = Experiment(
    ...     model=ModelSpec(family="mlp", dim=4, hidden_dim=8),
    ...     parallelism=ParallelismSpec(kind="dp", num_workers=2),
    ... ).plan()
    >>> type(build_engine(plan)).__name__
    'DataParallelEngine'
    """
    exp = plan.experiment
    if exp is None:
        raise ConfigurationError(
            f"plan for analytic workload {plan.workload_name!r} carries "
            "no buildable experiment spec"
        )
    cluster = cluster if cluster is not None else exp.cluster.build()
    model_spec, data, par = exp.model, exp.data, exp.parallelism
    task = data.build(model_spec)
    placement = list(plan.placement)

    if plan.engine_kind == "dp":
        return DataParallelEngine(
            cluster,
            model_factory=model_spec.build,
            opt_factory=model_spec.build_optimizer,
            loss_factory=data.loss_factory(),
            task=task,
            placement=placement,
            clock=clock,
            fused=par.fused,
        )
    if plan.engine_kind == "pp":
        return PipelineEngine(
            cluster,
            model_factory=model_spec.build,
            partition_sizes=list(plan.partition_sizes),
            placement=placement,
            num_microbatches=par.num_microbatches,
            opt_factory=model_spec.build_optimizer,
            loss_factory=data.loss_factory(),
            task=task,
            clock=clock,
            schedule=par.schedule,
            comm_time=par.comm_time,
        )
    if plan.engine_kind == "fsdp":
        return FSDPEngine(
            cluster,
            model_factory=model_spec.build,
            opt_factory=model_spec.build_optimizer,
            loss_factory=data.loss_factory(),
            task=task,
            placement=placement,
            clock=clock,
        )
    raise ConfigurationError(f"unknown engine kind {plan.engine_kind!r}")
