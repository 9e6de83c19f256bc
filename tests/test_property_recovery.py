"""Property-based recovery testing: any failure, any time, exact recovery.

Hypothesis draws the failure configuration (schedule, machine, iteration,
phase or instruction boundary, mid-update progress, a co-failing second
machine, selective-logging grouping, parallel-recovery degree, checkpoint
cadence) and the invariant must hold every time: after recovery and
continued training, the final model state matches a failure-free run —
bitwise when one recovery worker replays and no update had to be undone,
to rounding otherwise.

This generalizes the paper's Figure 11 experiments from two hand-picked
scenarios to the whole failure space the fail-stop model admits.
"""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (assert_back_at_iteration_start, assert_shared,
                     engine_snapshot, make_dp_engine, make_pp_engine,
                     pipeline_states)
from repro.api import (
    ClusterSpec,
    DataSpec,
    Experiment,
    FaultToleranceSpec,
    ModelSpec,
    ParallelismSpec,
)
from repro.cluster import FailureEvent, FailurePhase, FailureSchedule
from repro.core import GroupingPlan, SwiftTrainer, TrainerConfig
from repro.optim import LAMB, Adam, AdamW, SGDMomentum
from repro.parallel import INSTRUCTION_OPS
from repro.utils import state_equal

settings.register_profile("recovery", deadline=None, max_examples=15)
settings.load_profile("recovery")

TOTAL_ITERATIONS = 14

# failure-free references, computed once per (schedule, checkpoint interval)
# for pipelines and once per optimizer for data parallelism
_PP_REF: dict[tuple[str, int], dict] = {}
_DP_REF: dict[str, dict] = {}


def pp_engine(schedule: str):
    # 17 layers: every one of interleaved_1f1b's 8 chunks owns parameters
    return make_pp_engine(schedule=schedule, depth=8)


def pp_reference(schedule: str, ckpt: int):
    if (schedule, ckpt) not in _PP_REF:
        eng = pp_engine(schedule)
        SwiftTrainer(eng, TrainerConfig(checkpoint_interval=ckpt)).train(
            TOTAL_ITERATIONS
        )
        _PP_REF[schedule, ckpt] = pipeline_states(eng)
    return _PP_REF[schedule, ckpt]


def dp_reference(optimizer: str):
    if optimizer not in _DP_REF:
        eng = make_dp_engine(opt_factory=DP_OPTIMIZERS[optimizer])
        SwiftTrainer(eng, TrainerConfig()).train(TOTAL_ITERATIONS)
        _DP_REF[optimizer] = eng.workers[0].model.state_dict()
    return _DP_REF[optimizer]


@settings(max_examples=100)
@given(
    schedule=st.sampled_from(["gpipe", "1f1b", "interleaved_1f1b"]),
    machine=st.integers(0, 3),
    iteration=st.integers(1, TOTAL_ITERATIONS - 1),
    # an instruction name = die at that instruction boundary
    phase=st.sampled_from([
        FailurePhase.ITERATION_START,
        FailurePhase.FORWARD,
        FailurePhase.BACKWARD,
        FailurePhase.MID_UPDATE,
        *INSTRUCTION_OPS,
    ]),
    after_updates=st.integers(0, 7),
    also_down=st.none() | st.integers(0, 3),
    grouped=st.booleans(),
    degree=st.sampled_from([1, 2, 4]),
    ckpt=st.sampled_from([5, 7]),
)
def test_pipeline_recovery_always_exact(schedule, machine, iteration, phase,
                                        after_updates, also_down, grouped,
                                        degree, ckpt):
    ref = pp_reference(schedule, ckpt)
    eng = pp_engine(schedule)
    trainer = SwiftTrainer(
        eng,
        TrainerConfig(checkpoint_interval=ckpt,
                      parallel_recovery_degree=degree),
        grouping=GroupingPlan.of([[0, 1], [2, 3]]) if grouped else None,
    )
    # every accepted draw fires: ``after_updates`` wraps into the points
    # the drawn phase really has, and an op the machine's stream never
    # names (only stage 0 loads micro-batches) is rejected before any
    # training is paid for
    if isinstance(phase, FailurePhase):
        # FORWARD/BACKWARD count the 4 micro-batches, MID_UPDATE the 4
        # stage updates
        event = FailureEvent(machine, iteration, phase,
                             after_updates=after_updates % 4)
    else:
        hits = sum(i.op == phase for i in eng.program().streams[machine])
        assume(hits)
        event = FailureEvent(machine, iteration, FailurePhase.INSTRUCTION,
                             after_updates=after_updates % hits,
                             instruction=phase)
    events, down = [event], {machine}
    if (also_down not in (None, machine)
            and phase != FailurePhase.ITERATION_START):
        # Appendix B: a second machine is found dead at the same moment —
        # its iteration-start event fires first and the trainer fails the
        # drawn machine with it
        events.append(
            FailureEvent(also_down, iteration, FailurePhase.ITERATION_START))
        down.add(also_down)
    failures = FailureSchedule(events)
    trainer.train(iteration, failures=failures)
    view = engine_snapshot(eng)
    assert trainer.step(failures).failed
    (report,) = trainer.trace.recoveries
    assert set(report.failed_machines) == down
    assert report.strategy.startswith("logging")
    # logging replay is exact; update-undo and the bucket sums of
    # parallel replay are exact to rounding only
    exact = degree == 1 and not report.details["undone_params"]
    # every holder is back where the interrupted iteration began, unless
    # every survivor had already updated: then the replay completes that
    # iteration instead (a roll forward)
    if report.resume_iteration == iteration:
        assert_back_at_iteration_start(eng, view, exact)
    trainer.train(TOTAL_ITERATIONS, failures=failures)
    got = pipeline_states(eng)
    for sid in ref:
        for key in ref[sid]:
            same = (np.array_equal(ref[sid][key], got[sid][key]) if exact
                    else np.allclose(ref[sid][key], got[sid][key], atol=1e-7))
            assert same, (sid, key, exact)


DP_OPTIMIZERS = {
    "sgd_momentum": lambda m: SGDMomentum(m, lr=0.05, momentum=0.9,
                                          weight_decay=1e-4),
    "adam": lambda m: Adam(m, lr=1e-3, weight_decay=1e-3),
    # its undo rebinds ``param.data`` out of place
    "adamw": lambda m: AdamW(m, lr=1e-3, weight_decay=1e-2),
    "lamb": lambda m: LAMB(m, lr=1e-3, weight_decay=1e-2),
}
DP_PHASES = [
    FailurePhase.ITERATION_START,
    FailurePhase.FORWARD,
    FailurePhase.BACKWARD,
    FailurePhase.MID_UPDATE,
]
_dp_failure = st.tuples(
    st.integers(0, 1),  # machine; 0 hosts the canonical replica
    st.sampled_from(DP_PHASES),
    st.integers(0, 6),  # after_updates
    st.integers(0, 3),  # progress_offset
)


@given(
    optimizer=st.sampled_from(sorted(DP_OPTIMIZERS)),
    iteration=st.integers(1, TOTAL_ITERATIONS - 5),
    first=_dp_failure,
    # a second failure ``gap`` iterations later; 0 strikes the re-run of
    # the interrupted iteration, the same machine kills the replacements
    second=st.none() | st.tuples(st.integers(0, 3), _dp_failure),
    ckpt=st.sampled_from([5, 9]),
)
def test_dp_recovery_always_exact(optimizer, iteration, first, second, ckpt):
    failures = [(iteration, first)]
    if second is not None:
        failures.append((iteration + second[0], second[1]))

    def run(fused):
        eng = make_dp_engine(opt_factory=DP_OPTIMIZERS[optimizer],
                             eager=not fused)
        trainer = SwiftTrainer(eng, TrainerConfig(checkpoint_interval=ckpt))
        for at, (machine, phase, after_updates, offset) in failures:
            while eng.iteration < at:
                trainer.step()
            # survivors stop ``offset`` updates apart from each other
            progress = {
                w.rank: after_updates + offset * (w.rank % 2)
                for w in eng.workers if w.machine_id != machine
            }
            result = eng.run_iteration(
                failure=FailureEvent(machine, at, phase,
                                     after_updates=after_updates),
                survivor_progress=progress,
            )
            assert result.failed
            trainer.recover_now()
        while eng.iteration < TOTAL_ITERATIONS:
            trainer.step()
        return eng

    fused, eager = run(True), run(False)
    for wf, we in zip(fused.workers, eager.workers):
        assert state_equal(wf.full_state(), we.full_state()), wf.rank
    ref = dp_reference(optimizer)
    got = fused.workers[0].model.state_dict()
    for key in ref:
        assert np.allclose(ref[key], got[key], atol=1e-7), key
    uniform = all(
        phase != FailurePhase.MID_UPDATE or offset == 0
        for _, (_, phase, _, offset) in failures
    )
    if uniform:
        # identical undo on identical replicas: bit-identical again, so
        # the single shared update resumed
        assert fused.replicas_consistent()
        assert_shared(fused)


# -- the last rung: a global restart restores every engine, bitwise ----------
RESTART_KINDS = {
    "dp": dict(kind="dp"),
    "pp/1f1b": dict(kind="pp", schedule="1f1b"),
    "pp/interleaved_1f1b": dict(kind="pp", schedule="interleaved_1f1b"),
    # ranks r and r + 2 mirror each other, one rank per machine
    "fsdp": dict(kind="fsdp"),
}
RESTART_ITERATIONS = 10
_RESTART_REF: dict[tuple[str, int], list] = {}


def restart_session(kind: str, ckpt: int):
    return Experiment(
        # 17 layers: every one of interleaved_1f1b's 8 chunks owns parameters
        model=ModelSpec(family="mlp", dim=8, hidden_dim=16, num_classes=4,
                        depth=8, seed=7, optimizer="adam", lr=0.01),
        data=DataSpec(batch_size=16, seed=3),
        cluster=ClusterSpec(num_machines=4, devices_per_machine=1),
        parallelism=ParallelismSpec(num_workers=4, **RESTART_KINDS[kind]),
        fault_tolerance=FaultToleranceSpec(strategy="checkpoint_only",
                                           checkpoint_interval=ckpt),
    ).build()


def restart_states(session) -> list:
    return [h.full_state() for h in session.engine.state_holders()]


@settings(max_examples=60)
@given(
    kind=st.sampled_from(sorted(RESTART_KINDS)),
    machine=st.integers(0, 3),
    iteration=st.integers(1, RESTART_ITERATIONS - 1),
    phase=st.sampled_from([*DP_PHASES, *INSTRUCTION_OPS]),
    after_updates=st.integers(0, 7),
    # a second machine lost in the same instant; for fsdp machine + 2 is
    # the owner + mirror pair sharded replication has to refuse
    also_down=st.none() | st.integers(0, 3),
    ckpt=st.sampled_from([3, 4, 100]),
)
@example(kind="fsdp", machine=0, iteration=5, phase=FailurePhase.MID_UPDATE,
         after_updates=3, also_down=2, ckpt=4)
def test_global_restart_always_exact(kind, machine, iteration, phase,
                                     after_updates, also_down, ckpt):
    if (kind, ckpt) not in _RESTART_REF:
        ref = restart_session(kind, ckpt)
        ref.run(RESTART_ITERATIONS)
        _RESTART_REF[kind, ckpt] = ref.trace.losses, restart_states(ref)
    ref_losses, ref_states = _RESTART_REF[kind, ckpt]
    session = restart_session(kind, ckpt)
    engine, trainer = session.engine, session.trainer
    if isinstance(phase, FailurePhase):
        # 4 micro-batches, 4 stage updates, >= 4 parameters: always fires
        point = dict(phase=phase, after_updates=after_updates % 4)
    else:
        # instruction boundaries exist on pipelines only, and only where
        # the machine's own stream names the op
        assume(kind.startswith("pp"))
        hits = sum(i.op == phase for i in engine.program().streams[machine])
        assume(hits)
        point = dict(phase=FailurePhase.INSTRUCTION, instruction=phase,
                     after_updates=after_updates % hits)
    session.run(iteration)
    checkpoint = trainer.checkpoints.latest_iteration
    assert engine.run_iteration(
        failure=FailureEvent(machine, iteration, **point)).failed
    down = {machine}
    if also_down is not None:
        # Appendix B: found dead in the same instant
        session.cluster.fail_machine(also_down)
        down.add(also_down)
    report = trainer.recover_now()
    session.run(RESTART_ITERATIONS)
    assert session.trace.recoveries == [report]
    assert report.strategy == "global_checkpoint_restart"
    assert set(report.failed_machines) == down
    assert report.resume_iteration == checkpoint
    assert report.lost_iterations == iteration - checkpoint
    assert session.trace.losses[iteration:] == ref_losses[checkpoint:]
    for got, want in zip(restart_states(session), ref_states):
        assert state_equal(got, want)
    if kind == "fsdp":
        assert engine.mirrors_consistent()
        assert engine.full_params_consistent()
