"""Update-undo protocol: crash-consistency resolution (Section 4)."""

import numpy as np
import pytest

from helpers import make_dp_engine, make_pp_engine
from repro.cluster import FailureEvent, FailurePhase
from repro.core import resolve_dp_consistency, resolve_pipeline_consistency
from repro.utils.serialization import state_allclose


class TestDPUndo:
    def run_to_partial_update(self, after_updates=3, progress=None):
        eng = make_dp_engine()
        for _ in range(2):
            eng.run_iteration()
        self.pre_state = eng.workers[0].model.state_dict()
        event = FailureEvent(1, 2, FailurePhase.MID_UPDATE,
                             after_updates=after_updates)
        eng.run_iteration(failure=event, survivor_progress=progress)
        return eng

    def test_undo_restores_iteration_start_state(self):
        eng = self.run_to_partial_update()
        report = resolve_dp_consistency(eng)
        assert report.num_undone == 3 * len(eng.alive_workers())
        for w in eng.alive_workers():
            assert state_allclose(self.pre_state, w.model.state_dict(),
                                  atol=1e-9)

    def test_undo_with_heterogeneous_progress(self):
        """Figure 4: survivors caught at different update depths."""
        eng = self.run_to_partial_update(after_updates=2,
                                         progress={0: 1, 1: 4})
        resolve_dp_consistency(eng)
        states = [w.model.state_dict() for w in eng.alive_workers()]
        for s in states:
            assert state_allclose(self.pre_state, s, atol=1e-9)
        # replicas agree again after undo
        for k in states[0]:
            assert np.allclose(states[0][k], states[1][k], atol=1e-12)

    def test_undo_clears_marks(self):
        eng = self.run_to_partial_update()
        resolve_dp_consistency(eng)
        assert all(not w.updated_params for w in eng.alive_workers())

    def test_undo_noop_when_consistent(self):
        eng = make_dp_engine()
        eng.run_iteration()
        report = resolve_dp_consistency(eng)
        assert report.num_undone == 0

    def test_fully_updated_survivor_rolls_back_too(self):
        """A survivor that finished its whole update must also undo."""
        eng = self.run_to_partial_update(
            after_updates=2,
            progress={0: 10**9, 1: 2},  # worker 0 finished everything
        )
        resolve_dp_consistency(eng)
        for w in eng.alive_workers():
            assert state_allclose(self.pre_state, w.model.state_dict(),
                                  atol=1e-9)


class TestPipelineUndo:
    def test_consensus_is_minimum_iteration(self):
        eng = make_pp_engine()
        for _ in range(2):
            eng.run_iteration()
        event = FailureEvent(0, 2, FailurePhase.MID_UPDATE, after_updates=2)
        eng.run_iteration(failure=event)
        report = resolve_pipeline_consistency(eng)
        assert report.consensus_iteration == 2
        alive = [s for s in eng.stages if s.alive]
        assert all(s.iteration == 2 for s in alive)

    def test_ahead_stages_undone(self):
        eng = make_pp_engine()
        eng.run_iteration()
        pre = {s.stage_id: s.model.state_dict() for s in eng.stages}
        event = FailureEvent(0, 1, FailurePhase.MID_UPDATE, after_updates=2)
        eng.run_iteration(failure=event)
        report = resolve_pipeline_consistency(eng)
        assert len(report.undone) == 2  # the two stages that had updated
        for s in eng.stages:
            if s.alive:
                assert state_allclose(pre[s.stage_id],
                                      s.model.state_dict(), atol=1e-9)

    def test_noop_when_all_consistent(self):
        eng = make_pp_engine()
        eng.run_iteration()
        eng.run_iteration(failure=FailureEvent(1, 1, FailurePhase.FORWARD))
        report = resolve_pipeline_consistency(eng)
        assert report.num_undone == 0
        assert report.consensus_iteration == 1
