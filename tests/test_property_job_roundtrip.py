"""Property: Experiment -> JobSpec -> Experiment is a round trip.

``Experiment.to_job_spec`` lowers a spec into the fleet layer and
``Experiment.from_job_spec`` (what ``Job.start`` calls) lifts it back
onto granted slots.  There is one constructor path, so instead of two
hand-wired constructors agreeing by inspection, the round trip is the
oracle: lowered and lifted onto the experiment's own placement, the job
must plan the same decisions and train the same numbers.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.api import (
    ClusterSpec,
    DataSpec,
    Experiment,
    FaultToleranceSpec,
    ModelSpec,
    ParallelismSpec,
)
from repro.errors import ConfigurationError
from repro.jobs import Job
from repro.optim import OPTIMIZER_FAMILIES

ITERATIONS = 5
PLAN_FIELDS = (
    "engine_kind", "placement", "partition_sizes", "strategy",
    "checkpoint_interval", "incremental_checkpoints",
)


@st.composite
def fleet_expressible_experiments(draw):
    """MLP experiments over dp/pp that ``to_job_spec`` accepts."""
    kind = draw(st.sampled_from(["dp", "pp"]))
    workers = draw(st.integers(1, 4))
    devices = draw(st.integers(1, 4))
    machines = draw(st.integers(-(-workers // devices), 4))
    microbatches = draw(st.integers(1, 4))
    native = "replication" if kind == "dp" else "logging"
    return Experiment(
        name="roundtrip",
        model=ModelSpec(
            family="mlp",
            dim=draw(st.integers(2, 8)),
            hidden_dim=draw(st.integers(2, 8)),
            num_classes=draw(st.integers(2, 4)),
            # a JobSpec deepens PP models to one hidden layer per stage
            depth=draw(st.integers(workers if kind == "pp" else 1, 4)),
            seed=draw(st.integers(0, 50)),
            optimizer=draw(st.sampled_from(sorted(OPTIMIZER_FAMILIES))),
            lr=draw(st.sampled_from([None, 0.01, 0.05])),
        ),
        data=DataSpec(
            batch_size=draw(st.integers(max(workers, microbatches), 16)),
            seed=draw(st.integers(0, 50)),
        ),
        cluster=ClusterSpec(
            num_machines=machines, devices_per_machine=devices,
            # a slow PCIe link makes Section 5.4 reject logging
            pcie_bw=draw(st.sampled_from([None, 2e5])),
        ),
        parallelism=ParallelismSpec(
            kind=kind, num_workers=workers, num_microbatches=microbatches,
        ),
        fault_tolerance=FaultToleranceSpec(
            strategy=draw(st.sampled_from(["auto", "checkpoint_only", native])),
            checkpoint_interval=draw(st.integers(1, 6)),
            incremental_checkpoints=draw(st.booleans()),
        ),
    )


@settings(deadline=None, max_examples=60)
@given(exp=fleet_expressible_experiments())
def test_lowered_job_plans_and_trains_like_its_experiment(exp):
    try:
        want = exp.plan()
    except ConfigurationError:
        assume(False)  # e.g. explicit replication without a second machine
    job = Job(exp.to_job_spec(ITERATIONS))
    job.start(exp.cluster.build(), list(exp.resolved_placement()))
    got = job.session.plan
    assert {f: getattr(got, f) for f in PLAN_FIELDS} == {
        f: getattr(want, f) for f in PLAN_FIELDS
    }
    assert job.trainer.strategy == want.strategy
    while not job.done:
        job.step()
    assert job.trainer.trace.losses == exp.build().run(ITERATIONS).losses
