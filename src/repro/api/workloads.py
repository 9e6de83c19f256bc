"""Experiment-surface adapters for the paper's Table-2 workloads.

Two bridges keep the CLI and the analytic examples on the same
:mod:`repro.api` surface as the runnable engines:

* :func:`plan_workload` produces an :class:`~repro.api.ExecutionPlan`
  for a published workload (Wide-ResNet-50, ViT-128/32, BERT-128) from
  the calibrated :class:`~repro.sim.CostModel` instead of a live model —
  same Section 3 strategy chain, same Section 5.4 feasibility calculus,
  same Section 5.3 selective-logging planner;
* :func:`demo_fleet_specs` lowers the canonical five-job fleet demo
  through :meth:`Experiment.to_job_spec`, so the ``repro fleet`` CLI and
  ``examples/fleet_scheduler.py`` exercise the declarative path
  end-to-end.
"""

from __future__ import annotations

from repro.api.experiment import ExecutionPlan, Experiment
from repro.api.specs import (
    ClusterSpec,
    DataSpec,
    FaultToleranceSpec,
    ModelSpec,
    ParallelismSpec,
)
from repro.core.selective import PipelineProfile, SelectiveLoggingPlanner
from repro.core.strategy import FTStrategy, choose_strategy, logging_worth_it
from repro.errors import ConfigurationError
from repro.jobs.spec import JobSpec
from repro.optim import OPTIMIZER_TABLE1_BY_CLASS
from repro.parallel.hybrid import ParallelLayout, StagePlacement
from repro.sim.costmodel import CostModel
from repro.sim.fleet import FleetFailure
from repro.sim.workloads import Workload

__all__ = ["plan_workload", "demo_fleet_specs"]


def _workload_layout(w: Workload) -> ParallelLayout:
    """Replica/stage placement question for a Table-2 workload."""
    if w.parallelism == "DP":
        stages = [
            StagePlacement(
                0,
                tuple(
                    (rank // w.gpus_per_machine,)
                    for rank in range(w.num_workers)
                ),
            )
        ]
    else:
        per_machine = max(1, w.num_stages // w.num_machines)
        stages = [
            StagePlacement(sid, ((min(sid // per_machine,
                                      w.num_machines - 1),),))
            for sid in range(w.num_stages)
        ]
    return ParallelLayout(stages=list(stages)).validate()


def plan_workload(
    w: Workload,
    log_budget_bytes: float | None = None,
    checkpoint_interval: int | None = None,
) -> ExecutionPlan:
    """Run the pre-training decision chain for a published workload.

    The plan carries no buildable experiment (these models are the
    paper-scale originals, priced by the cost model) — it is the
    inspection/planning half of the API: strategy, feasibility, and the
    selective-logging grouping under ``log_budget_bytes``.

    >>> from repro.sim import BERT_128, WIDE_RESNET_50
    >>> plan_workload(WIDE_RESNET_50).strategy.value
    'replication'
    >>> plan = plan_workload(BERT_128, log_budget_bytes=200e9)
    >>> (plan.strategy.value, plan.selective.storage_bytes <= 200e9)
    ('logging', True)
    """
    cost = CostModel(w)
    layout = _workload_layout(w)
    interval = (
        checkpoint_interval
        if checkpoint_interval is not None
        else (w.checkpoint_interval_iters or 100)
    )
    feasibility = None
    log_bytes = 0.0
    if w.parallelism == "PP":
        log_bytes = cost.logging_bytes_per_machine()
        feasibility = logging_worth_it(
            log_bytes,
            cost.iteration_time,
            w.num_stages,
            w.num_microbatches,
            cost.hw.pcie_bw,
            model_state_bytes=w.state_bytes,
        )
    strategy = choose_strategy(
        layout, feasibility,
        optimizer_name=OPTIMIZER_TABLE1_BY_CLASS.get(w.optimizer),
    )
    selective = None
    if strategy is FTStrategy.LOGGING and log_budget_bytes is not None:
        n = w.num_machines
        stages_per_machine = w.num_stages // n
        profile = PipelineProfile(
            tuple(
                [w.num_microbatches * stages_per_machine * cost.slot_time]
                * n
            ),
            tuple(
                [2.0 * w.num_microbatches * w.boundary_bytes] * (n - 1)
            ),
        )
        planner = SelectiveLoggingPlanner(
            profile,
            checkpoint_interval=interval,
            network_bandwidth=cost.hw.network_bw,
        )
        selective = planner.plan(log_budget_bytes)
    if w.parallelism == "DP":
        placement = tuple(
            (rank // w.gpus_per_machine, rank % w.gpus_per_machine)
            for rank in range(w.num_workers)
        )
    else:
        placement = tuple(
            (sid * w.num_machines // w.num_stages,
             sid % w.gpus_per_machine)
            for sid in range(w.num_stages)
        )
    return ExecutionPlan(
        experiment=None,
        engine_kind="dp" if w.parallelism == "DP" else "pp",
        placement=placement,
        partition_sizes=None,
        layout=layout,
        strategy=strategy,
        strategy_source="auto",
        feasibility=feasibility,
        predicted_log_bytes_per_iteration=log_bytes,
        model_state_bytes=w.state_bytes,
        checkpoint_prefix="ckpt",
        checkpoint_interval=interval,
        incremental_checkpoints=False,
        selective=selective,
        workload_name=w.name,
    )


def demo_fleet_specs(
    iterations: int = 30,
) -> tuple[list[JobSpec], list[FleetFailure]]:
    """The canonical five-job fleet demo, lowered through the API.

    Mixed DP/PP gangs of different priorities (two elastic, one
    preempting high-priority arrival, one queued non-elastic gang) plus
    the two machine crashes of the registered ``"demo_fleet_crashes"``
    :mod:`repro.chaos` scenario.

    >>> specs, failures = demo_fleet_specs(iterations=10)
    >>> [s.name for s in specs]
    ['dp-main', 'pp-chain', 'dp-batch', 'dp-rush', 'dp-late']
    >>> [(f.round, f.machine_id) for f in failures]
    [(4, 0), (10, 2)]
    """
    if iterations < 1:
        raise ConfigurationError("iterations must be >= 1")
    fleet_cluster = ClusterSpec(num_machines=6, devices_per_machine=4)

    def mlp_experiment(name: str, kind: str, workers: int,
                       seed: int) -> Experiment:
        return Experiment(
            name=name,
            model=ModelSpec(family="mlp", dim=8, hidden_dim=16,
                            num_classes=4, depth=2, seed=seed,
                            # the legacy demo's exact optimizers/lrs
                            optimizer=("sgd_momentum" if kind == "dp"
                                       else "adam"),
                            lr=(0.05 if kind == "dp" else 0.01)),
            data=DataSpec(kind="classification", batch_size=16, seed=seed),
            cluster=fleet_cluster,
            parallelism=ParallelismSpec(kind=kind, num_workers=workers),
            fault_tolerance=FaultToleranceSpec(checkpoint_interval=10),
        )

    specs = [
        # the workhorse: elastic, so preemption shrinks it
        mlp_experiment("dp-main", "dp", 8, seed=11).to_job_spec(
            iterations, priority=1, elastic=True, min_workers=4,
        ),
        # pipeline-parallel job: recovers via tensor-log replay
        mlp_experiment("pp-chain", "pp", 4, seed=12).to_job_spec(
            iterations, priority=2,
        ),
        # background batch job, lowest priority, elastic
        mlp_experiment("dp-batch", "dp", 4, seed=13).to_job_spec(
            max(2, iterations // 2), priority=0, elastic=True,
            min_workers=2,
        ),
        # high-priority gang arriving later: triggers preemption
        mlp_experiment("dp-rush", "dp", 8, seed=14).to_job_spec(
            max(2, iterations // 2), priority=5, arrival=6,
        ),
        # low-priority non-elastic gang: cannot preempt, must queue
        mlp_experiment("dp-late", "dp", 8, seed=15).to_job_spec(
            max(2, iterations // 3), priority=0, arrival=8,
        ),
    ]
    # the demo's two crashes live in the scenario registry (scripted
    # events carry their rounds, so no horizon mapping is needed)
    from repro.chaos import get_scenario

    failures = get_scenario("demo_fleet_crashes").sample(
        seed=0, num_machines=fleet_cluster.num_machines
    ).to_fleet_failures()
    return specs, failures
