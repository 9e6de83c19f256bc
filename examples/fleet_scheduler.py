"""Fleet scheduling: many jobs, one shared cluster, failures, preemption.

Five jobs — mixed data-parallel and pipeline-parallel, different
priorities, two of them elastic — are declared as ``repro.api``
Experiments and lowered into fleet-schedulable job specs
(``Experiment.to_job_spec``), then share a 6-machine cluster with one
hot spare.  Each job is planned (``Experiment.plan()``, the Section 3
chain) on the slots the scheduler actually granted it.  Two machines
crash while the fleet runs; each crash is routed to the owning jobs'
recovery paths (here replication for the DP gangs, logging replay for
the pipeline) while every other job keeps training.  A
high-priority gang arriving mid-run preempts the elastic low-priority
jobs by *shrinking* them (crash-consistent scale-in via update-undo,
paper Section 8); they are re-grown once capacity frees up.

Run:  PYTHONPATH=src python examples/fleet_scheduler.py
"""

from repro.api import demo_fleet_specs
from repro.sim import FleetSimulator


def main() -> None:
    specs, failures = demo_fleet_specs(iterations=30)
    sim = FleetSimulator(
        specs,
        num_machines=6,
        devices_per_machine=4,
        num_spares=1,
        failures=failures,
    )
    report = sim.run()
    print(report.format_table())
    assert all(j.state == "completed" for j in report.jobs)

    print("\nplanned per job, on the slots it was granted:")
    jobs = list(sim.jobs.values())
    for job in jobs:
        plan = job.session.plan
        assert job.trainer.strategy == plan.strategy
        print(f"  {job.name}: {plan.strategy.value} ({plan.strategy_source}) "
              f"over machines {list(plan.machines)}")
    assert {j.name: j.session.plan.strategy.value for j in jobs} == {
        "dp-main": "replication", "pp-chain": "logging",
        "dp-batch": "replication", "dp-rush": "replication",
        "dp-late": "replication",
    }

    print("\nper-job recovery detail:")
    for job in jobs:
        for rep in job.recoveries:
            print(f"  {job.name}: {rep.strategy} after machine(s) "
                  f"{rep.failed_machines} failed, resumed at iteration "
                  f"{rep.resume_iteration} "
                  f"({rep.lost_iterations} iterations lost, "
                  f"{rep.total_time:.2f}s)")


if __name__ == "__main__":
    main()
