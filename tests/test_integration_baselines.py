"""Live-engine baseline comparison: Swift vs snapshot-based fault tolerance.

Runs the same training job under Swift (no snapshots) and under a
CheckFreq/Elastic-Horovod-style snapshot regime on the *live* engines, and
checks the paper's qualitative claims on simulated time: snapshots cost
failure-free time, Swift doesn't; snapshot recovery loses iterations since
the last snapshot, Swift loses none.
"""

import numpy as np
import pytest

from helpers import make_dp_engine
from repro.cluster import FailureEvent, FailurePhase, FailureSchedule
from repro.core import SnapshotManager, SwiftTrainer, TrainerConfig


def swift_run(iterations=20, failure=None):
    eng = make_dp_engine()
    trainer = SwiftTrainer(eng, TrainerConfig(checkpoint_interval=50))
    failures = FailureSchedule([failure]) if failure else None
    trace = trainer.train(iterations, failures=failures)
    return eng, trainer, trace


def snapshot_run(iterations=20, failure=None, mode="checkfreq",
                 snapshot_interval=4):
    eng = make_dp_engine()
    snaps = SnapshotManager(eng.cluster, eng.clock, mode=mode)
    trainer = SwiftTrainer(
        eng, TrainerConfig(checkpoint_interval=50),
        snapshots=snaps, snapshot_interval=snapshot_interval,
    )
    failures = FailureSchedule([failure]) if failure else None
    trace = trainer.train(iterations, failures=failures)
    return eng, trainer, trace


class TestFailureFreeOverhead:
    def test_snapshots_cost_simulated_time(self):
        _, t_swift, _ = swift_run()
        _, t_snap, _ = snapshot_run()
        assert t_snap.clock.total_time("snapshot_stall") > 0
        assert t_swift.clock.total_time("snapshot_stall") == 0

    def test_checkfreq_has_persist_interference(self):
        _, t_cf, _ = snapshot_run(mode="checkfreq")
        _, t_eh, _ = snapshot_run(mode="elastic")
        assert t_cf.clock.total_time("snapshot_persist_interference") > 0
        assert t_eh.clock.total_time("snapshot_persist_interference") == 0

    def test_same_numerics_regardless_of_snapshots(self):
        """Snapshots are pure overhead: losses identical to Swift's run."""
        _, _, swift_trace = swift_run()
        _, _, snap_trace = snapshot_run()
        assert np.allclose(swift_trace.losses, snap_trace.losses)


class TestRecoveryComparison:
    def test_swift_recovers_without_lost_iterations(self):
        failure = FailureEvent(1, 10, FailurePhase.MID_UPDATE, after_updates=2)
        _, _, trace = swift_run(failure=failure)
        assert trace.recoveries[0].lost_iterations == 0

    def test_snapshot_state_survives_on_other_machine(self):
        """After a machine-1 failure, machine-0 snapshots still exist."""
        failure = FailureEvent(1, 10, FailurePhase.FORWARD)
        eng, trainer, _ = snapshot_run(failure=failure)
        snaps = trainer.snapshots
        surviving = [
            w.rank for w in eng.workers if w.machine_id == 0
        ]
        assert any(snaps.has_snapshot(r) for r in surviving)

    def test_swift_total_time_beats_snapshot_regime(self):
        failure = FailureEvent(1, 10, FailurePhase.MID_UPDATE, after_updates=1)
        _, t_swift, sw_trace = swift_run(failure=failure)
        failure = FailureEvent(1, 10, FailurePhase.MID_UPDATE, after_updates=1)
        _, t_snap, sn_trace = snapshot_run(failure=failure)
        # equal useful work, but the snapshot run paid stalls on top
        assert t_snap.clock.now > t_swift.clock.now

    def test_trace_summaries_reflect_regime(self):
        failure = FailureEvent(1, 10, FailurePhase.FORWARD)
        _, _, trace = swift_run(failure=failure)
        assert len(trace.recoveries) == 1
        assert len(trace.iteration_times) == 20
