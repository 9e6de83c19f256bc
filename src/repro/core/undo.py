"""Update-undo: resolving crash-consistency without snapshots (Section 4).

When a machine crashes during a wait-free model update, surviving workers
are caught with *some* parameters updated and others not (Figure 4).
Because the optimizers are invertible (:mod:`repro.optim`), the survivors
simply undo the updates they already applied, returning every worker to
the same consistent version — no snapshot, no barrier, zero failure-free
overhead.

Two flavours match the two parallelism modes:

* **Data parallelism** — each worker undoes its own marked parameters
  (Figure 5: worker 2 undoes layer N-1's update).
* **Pipeline parallelism** — stages update at different times, so workers
  first exchange iteration counters to find the *consensus pre-failure
  iteration*; stages ahead of it undo their whole update (Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.parallel.data_parallel import DataParallelEngine
from repro.parallel.pipeline import PipelineEngine

__all__ = ["UndoReport", "resolve_dp_consistency", "resolve_pipeline_consistency"]


@dataclass
class UndoReport:
    """What update-undo had to repair."""

    #: consensus iteration every worker was rolled back to
    consensus_iteration: int
    #: per-worker (rank or stage id) parameter names undone
    undone: dict[int, list[str]] = field(default_factory=dict)

    @property
    def num_undone(self) -> int:
        return sum(len(v) for v in self.undone.values())


def resolve_dp_consistency(engine: DataParallelEngine) -> UndoReport:
    """Undo partial updates on surviving (plain or sharded) DP workers.

    After this call every live replica holds exactly the iteration-start
    state ``x_t`` (up to floating-point error, per Section 4), restoring
    the replica-consistency invariant; replicas sharing an arena undo once.
    """
    report = UndoReport(consensus_iteration=engine.iteration)
    if engine.kind == "dp":
        report.undone = engine.undo_shared_update()
    for worker in engine.alive_workers():
        if not worker.updated_params:
            continue
        # undo in reverse update order (order is immaterial mathematically,
        # but reverse mirrors the forward update sequence)
        names = list(reversed(worker.updated_params))
        worker.optimizer.undo(names)
        report.undone[worker.rank] = names
        worker.updated_params = []
    return report


def resolve_pipeline_consistency(engine: PipelineEngine) -> UndoReport:
    """Roll surviving pipeline stages back to the consensus iteration.

    Surviving stages exchange iteration counters; the consensus pre-failure
    iteration is the minimum.  Stages that already advanced past it undo
    their latest update (whole-stage undo — stage updates are atomic at
    stage granularity in 1F1B).  If the interrupted iteration re-runs, each
    survivor's non-trainable leaves go back to their iteration-start data.
    """
    alive = [s for s in engine.stages if s.alive]
    if not alive:
        return UndoReport(consensus_iteration=engine.iteration)
    consensus = min(s.iteration for s in alive)
    report = UndoReport(consensus_iteration=consensus)
    for stage in alive:
        while stage.iteration > consensus:
            names = list(stage.optimizer.params)
            stage.undo()
            report.undone.setdefault(stage.stage_id, []).extend(names)
    # the interrupted iteration re-runs: put back the buffers (a
    # BatchNorm's running statistics) its aborted forwards moved.  When
    # every survivor had updated, it rolls forward and they stay.
    if consensus == engine.iteration:
        for stage in alive:
            for param, data in stage.buffers_at_start:
                param.data = data
    return report
