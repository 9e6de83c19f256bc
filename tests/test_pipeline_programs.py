"""Instruction-stream pipeline layer: conformance, verifier, goldens, chaos.

Four guarantees, wired into tier-1:

1. **Differential conformance** — every registered schedule produces
   bitwise-identical final parameters, optimizer state, and losses on
   the same model/data, across a (p, m) grid including the edge cases
   (p=1, m=1, m < p), and all of them match a hand-rolled sequential
   gradient-accumulation oracle.
2. **Bitwise oracle** — the refactored engine reproduces the recorded
   pre-refactor traces (losses, simulated times, state digests) in
   ``tests/traces/pipeline_engine_golden.json`` exactly, including the
   recovery paths.
3. **Verifier properties** — every valid program passes
   :func:`verify_program`; every seeded single-instruction mutation
   (drop / duplicate / swap / retag) is rejected with a diagnostic
   naming the stage and instruction index.
4. **Chaos at instruction boundaries** — killing a stage at each
   instruction-class boundary recovers to the unfaulted loss curve,
   for both the logging and checkpoint-only strategies, driven through
   a :class:`repro.chaos.FailureTrace`.

Golden instruction streams for the registered schedules live under
``tests/traces/program_*.jsonl`` and are diffed byte-for-byte.
"""

import hashlib
import itertools
import json
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from repro.api import ClusterSpec, Experiment, ModelSpec, ParallelismSpec
from repro.api.experiment import DEFAULT_BWD_TIME, DEFAULT_FWD_TIME
from repro.chaos import ChaosEvent, FailureTrace
from repro.cluster import Cluster, FailureEvent, FailurePhase, FailureSchedule
from repro.core import SwiftTrainer, TrainerConfig
from repro.data import ClassificationTask
from repro.errors import ConfigurationError
from repro.models import make_mlp
from repro.nn import CrossEntropyLoss
from repro.optim import Adam
from repro.parallel import (
    INSTRUCTION_OPS,
    Instruction,
    PipelineEngine,
    ScheduleProgram,
    ScheduleVerificationError,
    bubble_ratio,
    build_program,
    default_virtual_stages,
    programs,
    register_schedule,
    schedule_names,
    simulate_program,
    verify_program,
)

TRACES = Path(__file__).parent / "traces"

DIM, HIDDEN, CLASSES, BATCH = 8, 16, 4, 16
DEPTH = 4  # 2 * depth + 1 = 9 partitionable layers
LAYERS = 2 * DEPTH + 1


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def balanced_partition(layers: int, chunks: int) -> list[int]:
    base, rem = divmod(layers, chunks)
    sizes = [base + 1 if c < rem else base for c in range(chunks)]
    assert all(s >= 1 for s in sizes), (layers, chunks)
    return sizes


def make_engine(schedule: str, p: int, m: int, *, depth: int = DEPTH,
                virtual_stages: int | None = None) -> PipelineEngine:
    v = (default_virtual_stages(schedule) if virtual_stages is None
         else virtual_stages)
    layers = 2 * depth + 1
    return PipelineEngine(
        Cluster(p, devices_per_machine=1),
        model_factory=lambda: make_mlp(DIM, HIDDEN, CLASSES, depth=depth,
                                       seed=7),
        partition_sizes=balanced_partition(layers, p * v),
        placement=[(s, 0) for s in range(p)],
        num_microbatches=m,
        opt_factory=lambda mod: Adam(mod, lr=0.01),
        loss_factory=CrossEntropyLoss,
        task=ClassificationTask(dim=DIM, num_classes=CLASSES,
                                batch_size=BATCH, seed=3),
        schedule=schedule,
    )


def global_params(engine: PipelineEngine) -> list[np.ndarray]:
    """All parameters gathered in model (chunk-id) order."""
    chunk_owner = {}
    for stage in engine.stages:
        for cid, module in stage.chunks.items():
            chunk_owner[cid] = module
    out = []
    for cid in sorted(chunk_owner):
        for _, param in chunk_owner[cid].named_parameters():
            out.append(np.array(param.data, copy=True))
    return out


def state_digest(engine: PipelineEngine) -> str:
    """Order-stable SHA-256 over every stage's full state (the golden
    capture used this exact recipe)."""
    h = hashlib.sha256()
    for sid in sorted(s.stage_id for s in engine.stages):
        state = engine.stages[sid].full_state()
        for key in sorted(state):
            h.update(key.encode())
            h.update(np.ascontiguousarray(state[key]).tobytes())
    return h.hexdigest()


def sequential_oracle(m: int, iterations: int, *, depth: int = DEPTH):
    """Plain single-device gradient-accumulation loop: the DP-1 oracle."""
    model = make_mlp(DIM, HIDDEN, CLASSES, depth=depth, seed=7)
    opt = Adam(model, lr=0.01)
    task = ClassificationTask(dim=DIM, num_classes=CLASSES,
                              batch_size=BATCH, seed=3)
    losses = []
    for it in range(iterations):
        x, y = task.batch(it)
        xs = np.array_split(x, m)
        ys = np.array_split(y, m)
        model.zero_grad()
        mb_losses = []
        for mb in range(m):
            out = model(xs[mb])
            loss_fn = CrossEntropyLoss()
            mb_losses.append(loss_fn(out, ys[mb]))
            model.backward(loss_fn.backward() / m)
        opt.step_flat()
        losses.append(float(np.mean(mb_losses)))
    params = [np.array(p.data, copy=True)
              for _, p in model.named_parameters()]
    return losses, params


def grid_configs():
    """(schedule, p, m) combinations every registered schedule supports."""
    configs = []
    for schedule in schedule_names():
        v = default_virtual_stages(schedule)
        for p in (1, 2, 3):
            for m in (1, 2, 4, 8):
                if m > BATCH:
                    continue
                if v > 1 and m % p != 0:
                    continue  # interleaved needs m % p == 0
                if p * v > LAYERS:
                    continue
                configs.append((schedule, p, m))
    return configs


# ---------------------------------------------------------------------------
# 1. differential conformance
# ---------------------------------------------------------------------------

class TestConformance:
    ITERS = 4

    def _run(self, schedule, p, m):
        engine = make_engine(schedule, p, m)
        losses = [engine.run_iteration().loss for _ in range(self.ITERS)]
        return losses, global_params(engine)

    @pytest.mark.parametrize("schedule,p,m", grid_configs())
    def test_bitwise_equal_to_sequential_oracle(self, schedule, p, m):
        """Every schedule x (p, m) point reproduces the DP-1 oracle
        bitwise — losses AND final parameters."""
        losses, params = self._run(schedule, p, m)
        oracle_losses, oracle_params = sequential_oracle(m, self.ITERS)
        assert losses == oracle_losses, (schedule, p, m)
        assert len(params) == len(oracle_params)
        for ours, ref in zip(params, oracle_params):
            assert ours.shape == ref.shape
            assert np.array_equal(ours, ref), (schedule, p, m)

    def test_m_less_than_p_conformance(self):
        """m < p (deep pipeline, few micro-batches) stays bitwise-equal
        across schedules."""
        ref_losses, ref_params = self._run("1f1b", 4, 2)
        for schedule in ("gpipe",):
            losses, params = self._run(schedule, 4, 2)
            assert losses == ref_losses
            for ours, ref in zip(params, ref_params):
                assert np.array_equal(ours, ref)

    def test_optimizer_state_digest_equal_across_schedules(self):
        """Not just parameters: the full optimizer state digests agree
        whenever the schedules place the same chunks on the same stages."""
        p, m = 2, 4
        engines = {
            name: make_engine(name, p, m,
                              virtual_stages=default_virtual_stages(name))
            for name in ("1f1b", "gpipe")
        }
        for engine in engines.values():
            for _ in range(self.ITERS):
                engine.run_iteration()
        digests = {state_digest(e) for e in engines.values()}
        assert len(digests) == 1
        # interleaved splits the same layers into more chunks, so the
        # per-stage digests differ; global parameters still match
        inter = make_engine("interleaved_1f1b", p, m)
        for _ in range(self.ITERS):
            inter.run_iteration()
        ref = global_params(engines["1f1b"])
        for ours, want in zip(global_params(inter), ref):
            assert np.array_equal(ours, want)


# ---------------------------------------------------------------------------
# 2. pre-refactor golden traces (bitwise oracle)
# ---------------------------------------------------------------------------

def _golden_runs():
    data = json.loads(
        (TRACES / "pipeline_engine_golden.json").read_text()
    )
    return data["runs"]


def _golden_engine(schedule: str, m: int) -> PipelineEngine:
    """The exact configuration the goldens were captured with."""
    return PipelineEngine(
        Cluster(4, devices_per_machine=1),
        model_factory=lambda: make_mlp(8, 16, 4, depth=3, seed=7),
        partition_sizes=[2, 2, 2, 1],
        placement=[(s, 0) for s in range(4)],
        num_microbatches=m,
        opt_factory=lambda mod: Adam(mod, lr=0.01),
        loss_factory=CrossEntropyLoss,
        task=ClassificationTask(dim=8, num_classes=4, batch_size=16, seed=3),
        schedule=schedule,
    )


class TestPreRefactorGoldens:
    @pytest.mark.parametrize("run,schedule,m", [
        ("plain_1f1b_m1", "1f1b", 1),
        ("plain_1f1b_m2", "1f1b", 2),
        ("plain_1f1b_m4", "1f1b", 4),
        ("plain_gpipe_m4", "gpipe", 4),
    ])
    def test_plain_runs_bitwise(self, run, schedule, m):
        golden = _golden_runs()[run]
        engine = _golden_engine(schedule, m)
        losses, sim_times = [], []
        for _ in range(len(golden["losses"])):
            r = engine.run_iteration()
            losses.append(r.loss)
            sim_times.append(r.sim_time)
        assert losses == golden["losses"]
        assert sim_times == golden["sim_times"]
        assert state_digest(engine) == golden["state_sha256"]

    @pytest.mark.parametrize("run,schedule,event", [
        ("recovery_forward", "1f1b",
         FailureEvent(2, 9, FailurePhase.FORWARD)),
        ("recovery_mid_update", "1f1b",
         FailureEvent(1, 7, FailurePhase.MID_UPDATE, after_updates=2)),
        ("recovery_backward_gpipe", "gpipe",
         FailureEvent(3, 9, FailurePhase.BACKWARD)),
    ])
    def test_recovery_runs_bitwise(self, run, schedule, event):
        golden = _golden_runs()[run]
        engine = _golden_engine(schedule, 4)
        trainer = SwiftTrainer(engine, TrainerConfig(checkpoint_interval=6))
        trace = trainer.train(12, failures=FailureSchedule([event]))
        assert trace.losses == golden["losses"]
        assert state_digest(engine) == golden["state_sha256"]


# ---------------------------------------------------------------------------
# 3. verifier properties
# ---------------------------------------------------------------------------

def all_valid_programs():
    programs = []
    for schedule in schedule_names():
        v = default_virtual_stages(schedule)
        for p in (1, 2, 3, 4):
            for m in (1, 2, 4, 8):
                if v > 1 and m % p != 0:
                    continue
                programs.append((schedule, p, m, v))
    return programs


def _mutate(program: ScheduleProgram, rng: np.random.Generator):
    """One seeded single-instruction mutation; returns (kind, program).

    ``swap`` only exchanges *dependent* adjacent instructions (same
    (chunk, micro-batch) data-flow key) — swapping two independent
    instructions can legitimately yield a different-but-valid program.
    """
    streams = [list(s) for s in program.streams]
    kind = ["drop", "duplicate", "swap", "retag"][int(rng.integers(4))]
    if kind == "swap":
        candidates = [
            (s, i)
            for s, stream in enumerate(streams)
            for i in range(len(stream) - 1)
            if (stream[i].chunk, stream[i].microbatch)
            == (stream[i + 1].chunk, stream[i + 1].microbatch)
            and stream[i].op != stream[i + 1].op
        ]
        if not candidates:
            return None
        s, i = candidates[int(rng.integers(len(candidates)))]
        streams[s][i], streams[s][i + 1] = streams[s][i + 1], streams[s][i]
    elif kind == "retag":
        candidates = [
            (s, i)
            for s, stream in enumerate(streams)
            for i in range(len(stream))
            if stream[i].microbatch >= 0
        ]
        if not candidates or program.num_microbatches < 2:
            return None
        s, i = candidates[int(rng.integers(len(candidates)))]
        instr = streams[s][i]
        streams[s][i] = replace(
            instr,
            microbatch=(instr.microbatch + 1) % program.num_microbatches,
        )
    else:
        candidates = [
            (s, i) for s, stream in enumerate(streams)
            for i in range(len(stream))
        ]
        s, i = candidates[int(rng.integers(len(candidates)))]
        if kind == "drop":
            del streams[s][i]
        else:
            streams[s].insert(i, streams[s][i])
    return kind, replace(program, streams=tuple(tuple(x) for x in streams))


class TestVerifierProperties:
    @pytest.mark.parametrize("schedule,p,m,v", all_valid_programs())
    def test_valid_programs_always_pass(self, schedule, p, m, v):
        program = build_program(schedule, p, m, v)
        check = verify_program(program)
        assert check.num_instructions == program.num_instructions
        assert len(check.peak_in_flight) == p

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_mutations_always_rejected(self, seed):
        """drop / duplicate / swap / retag of any single instruction is
        caught, and the diagnostic names a stage and instruction index."""
        rng = np.random.default_rng(seed)
        base = [("1f1b", 2, 4, 1), ("gpipe", 3, 4, 1),
                ("interleaved_1f1b", 2, 4, 2)]
        schedule, p, m, v = base[seed % len(base)]
        program = build_program(schedule, p, m, v)
        mutated = None
        while mutated is None:
            mutated = _mutate(program, rng)
        kind, bad = mutated
        with pytest.raises(ScheduleVerificationError) as err:
            verify_program(bad)
        msg = str(err.value)
        assert "stage" in msg, (kind, msg)
        assert "instruction" in msg, (kind, msg)

    def test_1f1b_cache_residency_bound(self):
        """1F1B's defining property: stage s holds at most p - s
        in-flight activations (gpipe holds all m)."""
        check = verify_program(build_program("1f1b", 4, 8))
        assert check.peak_in_flight == (4, 3, 2, 1)
        check = verify_program(build_program("gpipe", 4, 8))
        assert check.peak_in_flight == (8, 8, 8, 8)

    def test_max_in_flight_budget_enforced(self):
        program = build_program("gpipe", 2, 4)
        verify_program(program, max_in_flight=4)
        with pytest.raises(ScheduleVerificationError, match="in-flight"):
            verify_program(program, max_in_flight=3)

    def test_missing_optimizer_step_rejected(self):
        program = build_program("1f1b", 2, 2)
        streams = [
            tuple(i for i in s if i.op != "OptimizerStep") if n == 1 else s
            for n, s in enumerate(program.streams)
        ]
        with pytest.raises(ScheduleVerificationError,
                           match="OptimizerStep"):
            verify_program(replace(program, streams=tuple(streams)))

    def test_deadlock_detected(self):
        """Two stages that both recv before sending can never progress."""
        streams = (
            (
                Instruction("LoadMicroBatch", 0, 0, 0),
                Instruction("Forward", 0, 0, 0),
                Instruction("RecvGrad", 0, 0, 0),     # waits on stage 1
                Instruction("SendActivation", 0, 0, 0),
                Instruction("Backward", 0, 0, 0),
                Instruction("OptimizerStep", 0),
            ),
            (
                Instruction("RecvActivation", 1, 0, 1),
                Instruction("Forward", 1, 0, 1),
                Instruction("Backward", 1, 0, 1),
                Instruction("SendGrad", 1, 0, 1),
                Instruction("OptimizerStep", 1),
            ),
        )
        program = ScheduleProgram(
            name="deadlock", num_stages=2, num_microbatches=1,
            num_chunks=2, streams=streams,
        )
        with pytest.raises(ScheduleVerificationError, match="deadlock"):
            verify_program(program)


# ---------------------------------------------------------------------------
# golden instruction streams (byte-stable serialization)
# ---------------------------------------------------------------------------

class TestGoldenPrograms:
    CASES = [
        ("1f1b", 2, 4, 1),
        ("gpipe", 2, 4, 1),
        ("interleaved_1f1b", 2, 4, 2),
    ]

    @pytest.mark.parametrize("schedule,p,m,v", CASES)
    def test_program_matches_golden_bytes(self, schedule, p, m, v):
        path = TRACES / f"program_{schedule}_p{p}_m{m}.jsonl"
        assert build_program(schedule, p, m, v).to_jsonl() == \
            path.read_text()

    @pytest.mark.parametrize("schedule,p,m,v", CASES)
    def test_round_trip_is_byte_stable(self, schedule, p, m, v):
        path = TRACES / f"program_{schedule}_p{p}_m{m}.jsonl"
        text = path.read_text()
        program = ScheduleProgram.from_jsonl(text)
        assert program.to_jsonl() == text
        assert program == build_program(schedule, p, m, v)
        verify_program(program)

    def test_canonical_json_lines(self):
        """Every line is canonical JSON: sorted keys, no spaces."""
        for line in (TRACES / "program_1f1b_p2_m4.jsonl").read_text() \
                .splitlines():
            obj = json.loads(line)
            assert line == json.dumps(obj, sort_keys=True,
                                      separators=(",", ":"))


# ---------------------------------------------------------------------------
# 4. chaos at instruction boundaries
# ---------------------------------------------------------------------------

def loss_curve(trace) -> list[float]:
    """Per-iteration loss, last execution wins (checkpoint recovery
    re-runs the iterations after the restored checkpoint)."""
    curve = {}
    for it, loss in zip(trace.iteration_numbers, trace.losses):
        curve[it] = loss
    return [curve[i] for i in sorted(curve)]


def _boundary_ops(schedule: str, p: int) -> list[str]:
    """Instruction classes that actually occur in the schedule."""
    program = build_program(schedule, p, 4,
                            default_virtual_stages(schedule))
    present = {i.op for s in program.streams for i in s}
    return [op for op in INSTRUCTION_OPS if op in present]


class TestChaosAtInstructionBoundaries:
    ITERS = 12

    def _trainer(self, strategy: str, schedule: str = "1f1b",
                 degree: int = 1) -> SwiftTrainer:
        # depth 8 = 17 layers: each of interleaved_1f1b's 8 chunks trains
        return SwiftTrainer(
            make_engine(schedule, 4, 4, depth=8),
            TrainerConfig(checkpoint_interval=6, strategy=strategy,
                          parallel_recovery_degree=degree))

    def _baseline(self, strategy: str, schedule: str = "1f1b") -> list[float]:
        return loss_curve(self._trainer(strategy, schedule).train(self.ITERS))

    @pytest.mark.parametrize("schedule",
                             ["1f1b", "gpipe", "interleaved_1f1b"])
    @pytest.mark.parametrize("strategy", ["logging", "checkpoint_only"])
    def test_kill_at_every_instruction_class(self, strategy, schedule):
        baseline = self._baseline(strategy, schedule)
        for op in _boundary_ops(schedule, 4):
            trainer = self._trainer(strategy, schedule)
            failures = FailureSchedule([
                FailureEvent(2, 8, FailurePhase.INSTRUCTION,
                             after_updates=1, instruction=op)
            ])
            trace = trainer.train(self.ITERS, failures=failures)
            assert loss_curve(trace) == baseline, (strategy, schedule, op)

    def test_chaos_trace_drives_instruction_boundary(self):
        """The same injection flows through a replayable FailureTrace
        (chaos layer -> FailureSchedule -> engine)."""
        events = (
            ChaosEvent(time_hours=0.1, machine_id=2, iteration=8,
                       phase="instruction", after_updates=1,
                       instruction="SendGrad"),
        )
        trace = FailureTrace(
            scenario="instr_boundary", seed=0, num_machines=4,
            horizon_hours=1.0, events=events, horizon_iters=self.ITERS,
        )
        restored = FailureTrace.from_jsonl(trace.to_jsonl())
        assert restored == trace
        schedule = restored.to_schedule()
        [event] = schedule.pending()
        assert event.phase is FailurePhase.INSTRUCTION
        assert event.instruction == "SendGrad"

        result = self._trainer("logging").train(self.ITERS, failures=schedule)
        assert loss_curve(result) == self._baseline("logging")

    def test_interleaved_logging_recovery(self):
        """Two chunks per worker replay from the log like one: the failed
        worker re-runs its own stream, whatever the schedule scattered
        onto it — loss curve AND final state, bitwise at degree 1."""
        ref = self._trainer("logging", "interleaved_1f1b")
        baseline = loss_curve(ref.train(self.ITERS))
        for machine, degree in itertools.product(range(4), (1, 2)):
            trainer = self._trainer("logging", "interleaved_1f1b", degree)
            failures = FailureSchedule([
                FailureEvent(machine, 9, FailurePhase.INSTRUCTION,
                             after_updates=3, instruction="RecvGrad")
            ])
            trace = trainer.train(self.ITERS, failures=failures)
            [report] = trace.recoveries
            assert report.strategy == ("logging" if degree == 1
                                       else "logging+pr")
            assert report.details["stage_ids"] == [machine]
            assert report.lost_iterations == 3
            if degree == 1:
                assert loss_curve(trace) == baseline
                assert state_digest(trainer.engine) == \
                    state_digest(ref.engine)
            else:  # bucket sums re-associate the micro-batch order
                assert np.allclose(loss_curve(trace), baseline,
                                   rtol=0, atol=1e-7)

    def test_interleaved_checkpoint_recovery(self):
        """checkpoint_only recovery works for interleaved schedules and
        reproduces the unfaulted loss curve."""
        def trainer():
            return SwiftTrainer(
                make_engine("interleaved_1f1b", 2, 4),
                TrainerConfig(checkpoint_interval=4,
                              strategy="checkpoint_only"),
            )

        baseline = loss_curve(trainer().train(8))
        failures = FailureSchedule([
            FailureEvent(1, 5, FailurePhase.INSTRUCTION,
                         after_updates=0, instruction="Backward")
        ])
        trace = trainer().train(8, failures=failures)
        assert loss_curve(trace) == baseline


# -- one program per shape per process ------------------------------------

SCRATCH = "scratch_schedule"


@pytest.fixture
def scratch_name():
    """A schedule name the test may register; unregistered afterwards."""
    yield SCRATCH
    programs._REGISTRY.pop(SCRATCH, None)


def program_serial(p: int, m: int, v: int = 1) -> ScheduleProgram:
    """No overlap at all: a micro-batch's backward ends before the next
    forward starts, so the makespan is far from any pipelined one."""
    return programs._lower(
        SCRATCH, p, m, 1,
        lambda s: [u for k in range(m) for u in (("F", s, k), ("B", s, k))],
    )


class TestSharedPrograms:
    """``build_program`` runs a generator once per shape and hands every
    caller the same instance — safe only because nothing in a program can
    be assigned to, and only while a re-registered name gets new ones."""

    def test_equal_arguments_share_one_frozen_program(self):
        prog = build_program("1f1b", 3, 4)
        assert build_program("1f1b", 3, 4) is prog
        assert build_program("1f1b", num_stages=3, num_microbatches=4,
                             virtual_stages=1) is prog
        assert build_program("1f1b", 3, 5) is not prog
        with pytest.raises(FrozenInstanceError):
            prog.num_microbatches = 8
        with pytest.raises(FrozenInstanceError):
            prog.streams[0][0].microbatch = 3
        assert all(type(stream) is tuple for stream in prog.streams)
        assert hash(prog) == hash(replace(prog))  # field hash, cached

    def test_reregistering_a_name_replaces_its_programs(self, scratch_name):
        def as_scratch(generator):
            return lambda p, m, v: replace(generator(p, m, v),
                                           name=scratch_name)

        def experiment():
            return Experiment(
                model=ModelSpec(family="mlp", dim=4, hidden_dim=8, depth=3),
                cluster=ClusterSpec(num_machines=3, devices_per_machine=1),
                parallelism=ParallelismSpec(
                    kind="pp", num_workers=3, num_microbatches=4,
                    schedule=scratch_name),
            )

        def makespan(program):
            return simulate_program(
                program, [DEFAULT_FWD_TIME] * 3, [DEFAULT_BWD_TIME] * 3,
            ).iteration_time

        register_schedule(scratch_name, as_scratch(programs.program_1f1b))
        old = build_program(scratch_name, 3, 4)
        assert experiment()._iteration_time_estimate == makespan(old)

        register_schedule(scratch_name, program_serial, overwrite=True)
        new = build_program(scratch_name, 3, 4)
        verify_program(new)
        assert new == program_serial(3, 4) and new != old
        assert makespan(new) > makespan(old)
        assert experiment()._iteration_time_estimate == makespan(new)
        assert experiment().plan().feasibility.bubble_time \
            == bubble_ratio(3, 4) * makespan(new)

    def test_a_refused_shape_is_refused_every_time(self, scratch_name):
        runs = []

        def picky(p, m, v):
            runs.append((p, m, v))
            return programs.program_interleaved_1f1b(p, m, v)

        register_schedule(scratch_name, picky, virtual_stages=2)
        messages = []
        for _ in range(2):
            with pytest.raises(ConfigurationError,
                               match="divisible by num_stages") as err:
                build_program(scratch_name, 4, 6, 2)
            messages.append(str(err.value))
        assert runs == [(4, 6, 2)] * 2  # the failure was not memoised
        assert messages[0] == messages[1]
        # build_program's own argument checks still come first
        with pytest.raises(ConfigurationError, match="at least one stage"):
            build_program(scratch_name, 0, 4, 2)
        assert len(runs) == 2
