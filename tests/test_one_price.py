"""One price per experiment: ``plan()``, ``autoplan`` and the engines.

``ExecutionPlan.expected_goodput_fraction`` is the closed form over the
``CostModel.pricing`` the planner scores with, on the experiment's own
``to_workload()`` and replacement join; the engines charge the join and
the §7.1 logging init from the same definitions the pricing reads.
"""

import pytest

from repro.api import (
    ClusterSpec,
    DataSpec,
    Experiment,
    FaultToleranceSpec,
    ModelSpec,
    ParallelismSpec,
)
from repro.chaos import get_scenario, method_for_strategy
from repro.cluster import FailureEvent, FailurePhase, FailureSchedule
from repro.core.replication import LOGGING_INIT_TIME
from repro.core.strategy import MECHANISMS_BY_KIND, FTStrategy
from repro.plan import Candidate, ExperimentSearchSpace, GoodputObjective
from repro.sim import CostModel

#: every kind x mechanism, logging at replay degrees 1 and 2
CASES = [
    (kind, strategy.value, degree)
    for kind, strategies in MECHANISMS_BY_KIND.items()
    for strategy in strategies
    for degree in ((1, 2) if strategy is FTStrategy.LOGGING else (1,))
]


def experiment(kind, strategy, degree=1, **ft_kwargs):
    return Experiment(
        name="priced",
        model=ModelSpec(family="mlp", dim=8, hidden_dim=16, depth=4),
        data=DataSpec(batch_size=16),
        cluster=ClusterSpec(num_machines=4, devices_per_machine=1),
        parallelism=ParallelismSpec(kind=kind, num_workers=4),
        fault_tolerance=FaultToleranceSpec(
            strategy=strategy, parallel_recovery_degree=degree,
            **ft_kwargs),
    )


def pricing(exp):
    ft = exp.fault_tolerance
    return CostModel(exp.to_workload(), exp.hardware_config()).pricing(
        method_for_strategy(ft.strategy), ft.checkpoint_interval,
        ft.parallel_recovery_degree)


@pytest.mark.parametrize("kind, strategy, degree", CASES)
def test_plan_goodput_is_the_closed_form_over_the_pricing(
        kind, strategy, degree):
    exp = experiment(kind, strategy, degree, scenario="steady_mtbf",
                     checkpoint_interval=20)
    plan = exp.plan()
    assert exp.to_workload().state_bytes == exp._model_state_bytes()
    price = pricing(exp)
    lost = 0 if strategy == "replication" else 20 / 2
    useful = get_scenario("steady_mtbf").default_iters \
        * price.iteration_seconds
    assert plan.expected_goodput_fraction == useful / (
        useful + plan.expected_failures * price.recovery(lost))


def test_plan_ranks_logging_and_restart_as_autoplan_does():
    """PP-4 under rack_burst: the deleted private model put logging at
    degree 2 above checkpoint restart (0.031050 vs 0.028475); the one
    pricing puts it below, in plan() and in the planner alike."""
    def fraction(strategy, degree=1):
        return experiment("pp", strategy, degree, scenario="rack_burst") \
            .plan().expected_goodput_fraction

    logging, restart = fraction("logging", 2), fraction("checkpoint_only")
    assert logging == pytest.approx(0.027393, abs=5e-7)
    assert restart == pytest.approx(0.028475, abs=5e-7)
    space = ExperimentSearchSpace(experiment("pp", "auto"))
    objective = GoodputObjective(space, "rack_burst", eval_seeds=3)

    def score(strategy, degree=1):
        return objective.score(Candidate(
            kind="pp", num_workers=4, num_microbatches=4, strategy=strategy,
            checkpoint_interval=100, parallel_recovery_degree=degree,
        )).goodput_samples_per_sec

    assert score("logging", 2) < score("checkpoint_only")
    assert logging < restart


@pytest.mark.parametrize("kind, strategy, degree", CASES)
def test_engine_charges_the_priced_join_and_init(kind, strategy, degree):
    exp = experiment(kind, strategy, degree, checkpoint_interval=5,
                     replacement_join_time=7.25)
    trace = exp.build().run(8, failures=FailureSchedule(
        [FailureEvent(1, 6, FailurePhase.FORWARD)]))
    [report] = trace.recoveries
    hw, price = exp.hardware_config(), pricing(exp).recovery
    init = LOGGING_INIT_TIME if strategy == "logging" else 0.0
    assert report.init_time == 7.25 + init
    assert report.init_time == hw.replacement_join_time + price.init
    # detection is the one term charged differently: the FailureDetector
    # protocol (poll + KV round trip + flag poll + abort) on the engines,
    # a flat 0.1 s in the cost model that the Table 5 pins rest on
    assert report.detection_time == pytest.approx(0.058)
    assert hw.detection_time == 0.1
