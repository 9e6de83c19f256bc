"""Section-8 extensions: sharded replication (FSDP) and elastic training.

Part 1 — FSDP + Swift, declaratively: ``ParallelismSpec(kind="fsdp")``
shards the model state across 4 workers with each shard mirrored on a
different machine ("maintain two copies of each piece of the sharded
model state").  The plan picks replication, and the session's
SwiftTrainer drives the sharded engine like any other: machine 1 dies
mid-update, recovery is shard-wise update-undo + mirror restore with
zero recomputation, and the periodic global checkpoint of every rank's
owned shards is taken as for DP and PP.

Part 2 — Elastic training: workers join and leave mid-run without
checkpoint-restart; an abrupt (mid-update) departure is repaired with
update-undo, and joiners receive state by replica broadcast.  The
coordinator drives the engine the API session built.

Run:  python examples/sharded_and_elastic.py
"""

from repro.api import (
    ClusterSpec,
    DataSpec,
    Experiment,
    FaultToleranceSpec,
    ModelSpec,
    ParallelismSpec,
)
from repro.cluster import FailureEvent, FailurePhase, FailureSchedule
from repro.core import ElasticCoordinator, ResizeEvent


def fsdp_demo() -> None:
    print("=== sharded replication (FSDP + Swift) ===")
    session = Experiment(
        name="fsdp-demo",
        model=ModelSpec(family="mlp", dim=8, hidden_dim=16, num_classes=4,
                        seed=7, optimizer="adam", lr=0.01),
        data=DataSpec(kind="classification", batch_size=16, seed=3),
        cluster=ClusterSpec(num_machines=2, devices_per_machine=2),
        parallelism=ParallelismSpec(kind="fsdp", num_workers=4),
        fault_tolerance=FaultToleranceSpec(checkpoint_interval=5),
    ).build()
    engine = session.engine
    shards = {r: len(engine.plan.params_owned_by(r)) for r in range(4)}
    print(f"shard ownership (rank -> #params): {shards}")

    failures = FailureSchedule([
        FailureEvent(1, 6, FailurePhase.MID_UPDATE, after_updates=3)
    ])
    session.run(12, failures=failures)
    (report,) = session.trace.recoveries  # exactly one recovery
    print(f"restored {report.details['restored_bytes']} shard bytes from "
          f"mirrors; undid {report.details['undone_params']} partial updates")
    assert report.lost_iterations == 0
    assert engine.mirrors_consistent() and engine.full_params_consistent()
    print(f"training resumed to iteration {engine.iteration}; "
          f"mirrors and replicas consistent")
    assert engine.iteration == 12 and len(session.trace.checkpoints) >= 1
    print(f"strategy {session.plan.strategy.value}; global checkpoints at "
          f"iterations {[it for it, _ in session.trace.checkpoints]}\n")


def elastic_demo() -> None:
    print("=== elastic training via update-undo ===")
    session = Experiment(
        name="elastic-demo",
        model=ModelSpec(family="mlp", dim=8, hidden_dim=16, num_classes=4,
                        seed=7, optimizer="sgd_momentum", lr=0.05),
        data=DataSpec(kind="classification", batch_size=32, seed=3),
        cluster=ClusterSpec(num_machines=2, devices_per_machine=4),
        parallelism=ParallelismSpec(kind="dp", num_workers=4,
                                    placement=((0, 0), (0, 1),
                                               (1, 0), (1, 1))),
    ).build()
    engine = session.engine
    coordinator = ElasticCoordinator(engine)
    schedule = [
        ResizeEvent(iteration=8, join=((0, 2), (1, 2))),   # scale 4 -> 6
        ResizeEvent(iteration=16, leave=(5,)),             # scale 6 -> 5
    ]
    trace = coordinator.train(24, schedule=schedule)
    print("membership over time:",
          {i: m for i, m in enumerate(trace.memberships) if
           i in (0, 8, 16, 23)})
    print(f"loss: {trace.losses[0]:.4f} -> {trace.losses[-1]:.4f}")
    assert engine.replicas_consistent()
    assert trace.losses[-1] < trace.losses[0]
    print("replicas consistent across every resize.")


if __name__ == "__main__":
    fsdp_demo()
    elastic_demo()
