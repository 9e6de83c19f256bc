"""Multi-job cluster scheduling: the fleet layer above Swift's recovery.

The seed reproduces Swift for a single job on a dedicated cluster.  This
package adds the missing production layer — many jobs sharing one
cluster — so every per-job recovery mechanism (replication, logging
replay, update-undo, elasticity) composes into a fleet-level goodput
story:

* :class:`JobSpec` / :class:`Job` — a ``SwiftTrainer`` run as a
  schedulable, steppable, (optionally) elastic unit;
* :mod:`repro.jobs.placement` — the gang policy as pure functions
  (failure-aware spread, elastic preemption, restoration order,
  head-of-line);
* :class:`SparePool` — hot spares leased to recoveries and reclaimed
  after repair: the one lease/repair/reclaim state machine.

The one scheduler that decides with them is the serve control plane's
(:func:`repro.serve.server.decide`, folded by
:class:`repro.serve.ServeState`).  The round-based
:class:`repro.sim.FleetSimulator` runs it and executes its decisions on
live jobs through a failure schedule; ``python -m repro.cli fleet``
prints the resulting per-job and cluster-wide report.
"""

from repro.jobs.spare import SparePool
from repro.jobs.spec import Job, JobSpec, JobState

__all__ = [
    "Job",
    "JobSpec",
    "JobState",
    "SparePool",
]
