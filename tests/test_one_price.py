"""One price per experiment: ``plan()``, ``autoplan`` and the engines.

``ExecutionPlan.expected_goodput_fraction`` is the closed form over the
``CostModel.pricing`` the planner scores with, on the experiment's own
``to_workload()`` and replacement join; the engines charge detection, the
join, the §7.1 logging init and the undo kernels from the same definitions
the pricing reads.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import (
    ClusterSpec,
    DataSpec,
    Experiment,
    FaultToleranceSpec,
    ModelSpec,
    ParallelismSpec,
)
from repro.chaos import get_scenario, method_for_strategy
from repro.chaos.evaluate import _Batch
from repro.cluster import FailureEvent, FailurePhase, FailureSchedule
from repro.core.replication import UNDO_KERNEL_TIME
from repro.core.strategy import MECHANISMS_BY_KIND, FTStrategy
from repro.plan import Candidate, ExperimentSearchSpace, GoodputObjective
from repro.sim import BERT_128, WIDE_RESNET_50, CostModel

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


#: every phase all three engines crash in without naming an instruction
PHASES = [FailurePhase.ITERATION_START, FailurePhase.FORWARD,
          FailurePhase.BACKWARD, FailurePhase.MID_UPDATE]


@pytest.mark.parametrize("kind, strategy, degree", CASES)
@settings(deadline=None, max_examples=20)
@given(join=st.floats(0.25, 60.0), phase=st.sampled_from(PHASES),
       after_updates=st.integers(0, 3), machine=st.integers(0, 3))
@example(join=7.25, phase=FailurePhase.MID_UPDATE, after_updates=2,
         machine=1)
def test_engine_charges_the_priced_join_and_init(
        kind, strategy, degree, join, phase, after_updates, machine):
    """A crash costs the engine what ``CostModel.pricing`` prices it.

    Bit for bit: detection + join is the price's ``base``, the init is the
    join plus the price's ``init`` (§7.1's logging init), and the undo
    kernels cost ``UNDO_KERNEL_TIME`` whenever anything was undone.  The
    rest of a recovery the engine measures on its own model and the price
    estimates on the paper's testbed: the replica broadcast bytes, the
    replay or re-execution compute, and the checkpoint load.
    """
    exp = experiment(kind, strategy, degree, checkpoint_interval=5,
                     replacement_join_time=join)
    trace = exp.build().run(8, failures=FailureSchedule(
        [FailureEvent(machine, 6, phase, after_updates=after_updates)]))
    [report] = trace.recoveries
    hw, price = exp.hardware_config(), pricing(exp).recovery
    assert report.detection_time + hw.replacement_join_time == price.base
    assert report.init_time == hw.replacement_join_time + price.init
    undone = report.details.get("undone_params", 0)
    assert report.undo_time == (UNDO_KERNEL_TIME if undone else 0.0)


#: the six analytic methods and a workload each prices on
ANALYTIC = {
    "global_checkpoint": WIDE_RESNET_50, "checkfreq": WIDE_RESNET_50,
    "elastic_horovod": WIDE_RESNET_50, "swift_replication": WIDE_RESNET_50,
    "swift_logging": BERT_128, "swift_logging_pr": BERT_128,
}


@pytest.mark.parametrize("lost", [0, 1, 7, 10**8])
def test_the_walks_vector_charge_is_the_scalar_price(lost):
    """The trace walk charges a batch of crashes with one vector
    expression; ``EndToEndSimulator`` and the plan-time goodput call the
    scalar ``RecoveryPrice``.  The two spellings agree bit for bit."""
    prices = [CostModel(w, use_experiment_time=False).pricing(m)
              for m, w in ANALYTIC.items()]
    batch = _Batch([(pricing, None) for pricing in prices])
    charged = batch.charge(np.full(len(prices), lost, dtype=np.int64))
    assert [x.hex() for x in charged.tolist()] == [
        pricing.recovery(lost).hex() for pricing in prices]
