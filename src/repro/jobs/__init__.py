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
  head-of-line), shared with the serve control plane;
* :class:`SparePool` — hot spares leased to recoveries and reclaimed
  after repair: the one lease/repair/reclaim state machine, which the
  serve fold (:class:`repro.serve.ServeState`) runs too;
* :class:`Scheduler` — applies that policy to a live cluster, routes
  machine failures to owning jobs, and logs every transition it takes
  in the serve WAL vocabulary.

The round-based :class:`repro.sim.FleetSimulator` drives a whole fleet
through a failure schedule; ``python -m repro.cli fleet`` prints the
resulting per-job and cluster-wide report.
"""

from repro.jobs.scheduler import Scheduler
from repro.jobs.spare import SparePool
from repro.jobs.spec import Job, JobSpec, JobState

__all__ = [
    "Job",
    "JobSpec",
    "JobState",
    "SparePool",
    "Scheduler",
]
