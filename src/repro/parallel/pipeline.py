"""Pipeline-parallel training engine over the simulated cluster.

Stages are contiguous slices of a Sequential model placed on devices across
machines; micro-batches flow through point-to-point messages (which is what
Swift's tensor log taps).  Numerics are exact NumPy; timing comes from the
static schedule simulator so bubbles, iteration time, and the logging
budget all fall out of the same model (paper Sections 2.1, 5.1).

The engine is an *instruction-stream interpreter* (DeepSpeed-style): the
schedule is not code but data — a per-stage
:class:`~repro.parallel.instructions.ScheduleProgram` of
``LoadMicroBatch / Forward / Backward / Send* / Recv* / OptimizerStep``
instructions produced by a registered generator (``1f1b``, ``gpipe``,
``interleaved_1f1b``, or anything added via
:func:`repro.parallel.register_schedule`) and statically verified before
the first iteration.  Instructions execute in simulated global-time
order, so failures land exactly where the schedule places them — and
:class:`~repro.cluster.failures.FailurePhase.INSTRUCTION` failures can
land *between* any two named instructions.  There is one interpreter:
logging recovery replays a failed worker by running its own streams
through the same dispatch, with receives bound to the tensor log instead
of the transport (:meth:`PipelineEngine.replay_streams`).

Design notes:

* **Per-micro-batch layer caches.**  Layers cache one forward's
  activations, but 1F1B keeps several micro-batches in flight per stage.
  Each forward stashes its chunk's layer caches per (chunk, micro-batch)
  and its backward restores them instead of running the forward again
  (as DeepSpeed's engine keeps activations): every layer runs once per
  micro-batch, so a backward differentiates the very forward sent
  downstream (same dropout mask, BatchNorm statistics moved once).
* **Per-stage iteration counters.**  Stages update as soon as their own
  backwards finish, at different simulated times (wait-free across stages),
  so a crash can catch stages on different iterations — the pipeline
  flavour of the crash-consistency problem (Section 6, "Update-undo ...
  surviving workers need to exchange their current iteration number").
* **Virtual stages.**  With ``len(partition_sizes) == v * len(placement)``
  each physical stage hosts ``v`` model chunks (chunk ``c`` on stage
  ``c % p``, Megatron-style); the stage's ``model`` is the combined
  slice (state/checkpoint shape is unchanged), while forward/backward run
  per chunk.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

import numpy as np

from repro.cluster.clock import SimClock
from repro.cluster.failures import FailureEvent, FailurePhase
from repro.cluster.topology import Cluster
from repro.comm.p2p import Transport
from repro.errors import ConfigurationError, MachineFailure
from repro.nn.module import Parameter
from repro.nn.sequential import Sequential
from repro.obs import NULL_RECORDER
from repro.optim.base import Optimizer
from repro.parallel.holder import StateHolder
from repro.parallel.instructions import (
    Instruction,
    ScheduleProgram,
    verify_program,
)
from repro.parallel.partition import partition_by_sizes
from repro.parallel.programs import build_program
from repro.parallel.results import IterationResult
from repro.parallel.schedules import ScheduleTiming, simulate_program

__all__ = ["PipelineStage", "PipelineEngine"]

_COMPUTE = ("Forward", "Backward")
#: chunk offset from a Send*/Recv* to the chunk at the other end of its edge
_PEER = {"RecvActivation": -1, "SendActivation": 1,
         "RecvGrad": 1, "SendGrad": -1}


class PipelineStage(StateHolder):
    """One pipeline stage: its model chunk(s), optimizer, gradient buffer
    and mb caches.  Its state is the holder's plus its ``iteration``."""

    def __init__(self, stage_id: int, model: Sequential, optimizer: Optimizer,
                 device, chunks: dict[int, Sequential] | None = None):
        self.stage_id = stage_id
        self.model = model
        self.optimizer = optimizer
        #: the stage's one gradient buffer, in its optimizer's update
        #: order: every micro-batch's backward adds into it
        self.grads = optimizer.grad_buffer()
        self.device = device
        self.iteration = 0
        #: model chunks hosted here, keyed by global chunk id; the layers
        #: are shared with :attr:`model` (flat pipelines: one chunk whose
        #: id is the stage id and whose module *is* ``model``)
        self.chunks: dict[int, Sequential] = (
            dict(chunks) if chunks is not None else {stage_id: model}
        )
        #: per-(chunk, microbatch) layer caches, kept from forward to backward
        self.stash: dict[tuple[int, int], list] = {}
        self.updated_this_iteration = False
        #: ``(leaf, data)`` of every non-trainable leaf as the iteration in
        #: flight (or the one a failure aborted) began: forwards rebind a
        #: BatchNorm's running statistics, and an attempt that is re-run
        #: must not keep them.  Empty once an iteration completes.
        self.buffers_at_start: list[tuple[Parameter, np.ndarray]] = []

    @property
    def shard_id(self) -> int:
        return self.stage_id

    def forward_mb(self, microbatch: int, x: np.ndarray,
                   chunk: int) -> np.ndarray:
        module = self.chunks[chunk]
        out = module(x)
        self.stash[(chunk, microbatch)] = module.stash_caches()
        return out

    def backward_mb(self, microbatch: int, grad: np.ndarray,
                    chunk: int) -> np.ndarray:
        module = self.chunks[chunk]
        module.restore_caches(self.stash.pop((chunk, microbatch)))
        return module.backward(grad)

    def seed_grads(self) -> None:
        """Zero the gradient buffer and bind the trainable leaves to it:
        the start of every iteration, live or replayed."""
        self.grads.zero()
        self.grads.bind_grads(self.optimizer.params)

    def step(self) -> None:
        self.optimizer.step_flat(self.grads.data)
        self.iteration += 1
        self.updated_this_iteration = True

    def undo(self) -> None:
        """Invert the latest update (update-undo, Section 4)."""
        self.optimizer.undo()
        self.iteration -= 1
        self.updated_this_iteration = False

    def clear_caches(self) -> None:
        self.stash.clear()

    def full_state(self) -> dict[str, np.ndarray]:
        state = super().full_state()
        state["iteration"] = np.array(self.iteration, dtype=np.int64)
        return state

    def load_full_state(self, state: Mapping[str, np.ndarray],
                        order: list[str] | None = None) -> None:
        iteration = int(state["iteration"])
        super().load_full_state(state, order)
        self.iteration = iteration

    def dirty_full_state_keys(self) -> set[str]:
        """The holder's keys plus ``iteration``, which advances every
        iteration and so is always dirty."""
        return super().dirty_full_state_keys() | {"iteration"}

    def state_nbytes(self) -> int:
        return super().state_nbytes() + 8  # the int64 iteration


class PipelineEngine:
    """Interprets a verified schedule program with real numerics + sim timing.

    Parameters
    ----------
    model_factory:
        Deterministic zero-argument model builder, called once here: the
        engine cuts its model into the stages it keeps for good — a
        recovery (logging replay, global restart) loads a failed stage's
        checkpoint into that same stage (:meth:`restore_shard`).
    partition_sizes:
        Layer counts per model chunk.  ``len(partition_sizes)`` must be a
        multiple of ``len(placement)``; the multiple is the number of
        *virtual stages* per physical stage (1 for flat schedules).
    placement:
        ``(machine_id, device_idx)`` per physical stage.
    fwd_times / bwd_times:
        Per-stage simulated compute seconds per micro-batch (temporal layer
        only; defaults to uniform 1 ms / 2 ms).
    schedule:
        Name of a registered schedule generator (``repro schedule --list``).
    """

    #: row of ``repro.core.strategy.MECHANISMS_BY_KIND``
    kind = "pp"
    #: a global checkpoint stalls for its slowest shard, not their sum
    checkpoint_writes_overlap = True

    def __init__(
        self,
        cluster: Cluster,
        model_factory: Callable[[], Sequential],
        partition_sizes: list[int],
        placement: list[tuple[int, int]],
        num_microbatches: int,
        opt_factory: Callable[[Sequential], Optimizer],
        loss_factory: Callable[[], object],
        task,
        clock: SimClock | None = None,
        fwd_times: list[float] | None = None,
        bwd_times: list[float] | None = None,
        schedule: str = "1f1b",
        comm_time: float = 0.0,
    ):
        if not partition_sizes:
            raise ConfigurationError("partition_sizes must not be empty")
        if not placement:
            raise ConfigurationError("placement must not be empty")
        if len(partition_sizes) % len(placement) != 0:
            raise ConfigurationError(
                f"len(partition_sizes)={len(partition_sizes)} must be a "
                f"multiple of len(placement)={len(placement)}"
            )
        if num_microbatches < 1:
            raise ConfigurationError("need at least one micro-batch")
        for name, times in (("fwd_times", fwd_times), ("bwd_times", bwd_times)):
            if times is not None and len(times) != len(placement):
                raise ConfigurationError(
                    f"{name} needs one entry per stage: expected "
                    f"{len(placement)}, got {len(times)}"
                )
        self.cluster = cluster
        self.num_stages = len(placement)
        self.virtual_stages = len(partition_sizes) // len(placement)
        self.num_microbatches = num_microbatches
        self.loss_factory = loss_factory
        self.task = task
        self.clock = clock or SimClock()
        self.fwd_times = fwd_times or [1e-3] * self.num_stages
        self.bwd_times = bwd_times or [2e-3] * self.num_stages
        self.schedule_name = schedule
        self.comm_time = comm_time

        # the schedule is data: generate, then statically verify before
        # anything executes (third-party schedules get the same treatment)
        self._program = build_program(
            schedule, self.num_stages, num_microbatches, self.virtual_stages
        )
        verify_program(self._program)

        # chunk c lives on stage c % p; a stage's model is its one chunk,
        # or the combined slice of its chunks' layers
        chunk_modules = partition_by_sizes(model_factory(), partition_sizes)
        self.stages: list[PipelineStage] = []
        for sid, slot in enumerate(placement):
            chunks = {c: chunk for c, chunk in enumerate(chunk_modules)
                      if c % self.num_stages == sid}
            model = chunks[sid] if self.virtual_stages == 1 else Sequential(
                [layer for c in sorted(chunks) for layer in chunks[c].layers])
            self.stages.append(PipelineStage(
                sid, model, opt_factory(model), cluster.device(*slot),
                chunks=chunks))
        self.transport = Transport(
            cluster, {s.stage_id: s.device for s in self.stages}
        )
        self.iteration = 0
        #: instrumentation sink (replaced by the trainer/session when a
        #: TraceRecorder is attached)
        self.recorder = NULL_RECORDER
        self._timing_cache: ScheduleTiming | None = None
        self._order_cache: list[Instruction] | None = None
        #: per-iteration extra time charged by fault-tolerance machinery
        #: (logging spills, checkpoint stalls); callables appended by FT
        #: components receive the ScheduleTiming and return seconds
        self.overhead_hooks: list[Callable[[ScheduleTiming], tuple[str, float]]] = []

    # -- schedule/timing ----------------------------------------------------
    def program(self) -> ScheduleProgram:
        """The verified instruction stream this engine interprets."""
        return self._program

    def timing(self) -> ScheduleTiming:
        if self._timing_cache is None:
            self._timing_cache = simulate_program(
                self._program, self.fwd_times, self.bwd_times, self.comm_time
            )
        return self._timing_cache

    def _execution_order(self) -> list[Instruction]:
        """All non-step instructions in simulated global-time order.

        Compute instructions are anchored at their simulated start time;
        a receive/load rides with the compute that consumes it and a send
        with the compute that produced it, so each recv + compute + send
        group stays contiguous in the global order.
        """
        if self._order_cache is not None:
            return self._order_cache
        timing = self.timing()
        keyed: list[tuple[float, int, int, Instruction]] = []
        for s, stream in enumerate(self._program.streams):
            starts: dict[int, float] = {
                idx: timing.op_times[(i.chunk, i.op[0], i.microbatch)][0]
                for idx, i in enumerate(stream)
                if i.op in _COMPUTE
            }
            anchors: list[float | None] = [None] * len(stream)
            nxt: float | None = None
            for idx in range(len(stream) - 1, -1, -1):
                if idx in starts:
                    nxt = starts[idx]
                anchors[idx] = nxt
            prev: float | None = None
            for idx, instr in enumerate(stream):
                if idx in starts:
                    prev = starts[idx]
                elif instr.op in ("SendActivation", "SendGrad"):
                    anchors[idx] = prev
            for idx, instr in enumerate(stream):
                if instr.op == "OptimizerStep":
                    continue
                anchor = anchors[idx]
                if anchor is None:
                    anchor = timing.stage_finish[s]
                keyed.append((anchor, s, idx, instr))
        keyed.sort(key=lambda t: t[:3])
        self._order_cache = [t[3] for t in keyed]
        return self._order_cache

    # -- state access ----------------------------------------------------------
    def state_holders(self) -> list[PipelineStage]:
        """What a global checkpoint saves, as in ``DataParallelEngine``."""
        return list(self.stages)

    def checkpoint_states(self) -> dict[int, dict[str, np.ndarray]]:
        """Each stage's ``full_state()`` by stage id."""
        return {s.stage_id: s.full_state() for s in self.stages}

    full_state = checkpoint_states

    # -- the restore contract (logging replay, global restart) -------------------
    def restore_shard(self, stage_id: int,
                      state: Mapping[str, np.ndarray]) -> None:
        """Load ``state`` (a ``full_state()``) into stage ``stage_id``, the
        one this engine keeps, and drop its in-flight layer caches.
        Nothing changes if loading raises.

        What else the stage keeps is rewritten before anything reads it:
        the undo journal (an undo needs a step, which journals), the dirty
        marks (the load marks every parameter), the flat arena (the next
        step copies the loaded leaves in, zeroing absent slots), layer
        caches (a backward restores its forward's), the gradient binding
        (:meth:`PipelineStage.seed_grads` precedes every pass) and the
        iteration-start marks (``run_iteration`` resets them first; undo
        touches only survivors, and a restored stage is never ahead).
        """
        stage = self.stages[stage_id]
        stage.load_full_state(state)
        stage.clear_caches()

    def finish_restore(self, iteration: int) -> None:
        """Every stage is back at ``iteration``: resume there with nothing
        of the abandoned iterations in flight."""
        self.transport.drop_all()
        self.iteration = iteration

    # -- micro-batch data ---------------------------------------------------
    def microbatches(self, iteration: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Deterministic micro-batch split of iteration's global batch."""
        x, y = self.task.batch(iteration)
        xs = np.array_split(x, self.num_microbatches)
        ys = np.array_split(y, self.num_microbatches)
        return xs, ys

    # -- execution ----------------------------------------------------------------
    def run_iteration(self, failure: FailureEvent | None = None) -> IterationResult:
        """One full pipeline iteration with optional failure injection.

        Instructions execute in simulated global-time order, so a crash
        interrupts the iteration exactly where the schedule places it —
        including *between* instructions for
        ``FailurePhase.INSTRUCTION`` failures.
        """
        live = [s for s in self.stages if s.alive]
        if len(live) != self.num_stages:
            raise MachineFailure(-1, "cannot run with failed stages; recover first")
        for s in self.stages:
            s.buffers_at_start = [(p, p.data) for p in s.model.parameters()
                                  if not p.requires_grad]
        if failure is not None and failure.phase == FailurePhase.ITERATION_START:
            return self._fail(failure)

        timing = self.timing()
        order = self._execution_order()
        num_compute = sum(1 for i in order if i.op in _COMPUTE)
        batch = self.microbatches(self.iteration)
        stages = dict(enumerate(self.stages))
        for s in self.stages:
            s.seed_grads()
            s.clear_caches()
            s.updated_this_iteration = False

        # the live binding: every Recv* reads the transport, every Send*
        # writes it (and so passes the tensor-log tap)
        transport, p = self.transport, self.num_stages
        flat = self.virtual_stages == 1

        def recv(instr: Instruction, phase: str) -> np.ndarray:
            src = (instr.chunk + _PEER[instr.op]) % p
            if flat:
                return transport.recv(instr.stage, src).tensor
            return transport.recv_matching(instr.stage, src, phase).tensor

        def send(instr: Instruction, tensor: np.ndarray, phase: str) -> None:
            chunk = instr.chunk + _PEER[instr.op]
            transport.send(
                instr.stage, chunk % p, tensor, self.iteration,
                instr.microbatch, phase, dst_chunk=chunk,
            )

        with self.recorder.span("engine/schedule", ops=num_compute):
            losses = self._interpret(
                stages, batch, order, recv, send, failure
            )
            if losses is None:
                return self._fail(failure)
        with self.recorder.span("engine/optimizer"):
            if not self.apply_updates(stages, failure):
                return self._fail(failure)

        for s in self.stages:
            s.buffers_at_start = []
        self.iteration += 1
        overheads: dict[str, float] = {}
        for hook in self.overhead_hooks:
            label, seconds = hook(timing)
            overheads[label] = overheads.get(label, 0.0) + seconds
        sim_time = timing.iteration_time + sum(overheads.values())
        self.clock.advance(sim_time, "iteration", iteration=self.iteration - 1)
        return IterationResult(
            iteration=self.iteration - 1,
            loss=float(np.mean(losses)),
            sim_time=sim_time,
            overheads=overheads,
        )

    def replay_streams(
        self,
        stages: dict[int, PipelineStage],
        iteration: int,
        batch: tuple[list[np.ndarray], list[np.ndarray]],
        logged: Callable[[int, int, int, str], np.ndarray],
        microbatches: range,
    ) -> None:
        """Re-run ``stages``' own streams for a past ``iteration``, off the
        transport (logging recovery, Section 5).

        The same instructions in the same global order as the live step,
        restricted to ``stages`` (stage id -> failed stage) and to the
        ``microbatches`` one recovery worker owns; ``batch`` is
        :meth:`microbatches` of ``iteration``.  A ``Recv*`` whose
        sender is outside ``stages`` reads ``logged(chunk, iteration,
        microbatch, phase)`` — the tensor log; an edge between two of
        ``stages`` is handed over in memory; a ``Send*`` leaving the set
        is dropped (its receiver survived and already consumed the
        original).  Gradients add into each stage's buffer, which the
        caller seeds (:meth:`PipelineStage.seed_grads`); updates are
        :meth:`apply_updates`.
        """
        p = self.num_stages
        order = [
            i for i in self._execution_order()
            if i.stage in stages and i.microbatch in microbatches
        ]
        handed: dict[tuple[int, int, str], np.ndarray] = {}

        def recv(instr: Instruction, phase: str) -> np.ndarray:
            if (instr.chunk + _PEER[instr.op]) % p in stages:
                return handed.pop((instr.chunk, instr.microbatch, phase))
            return logged(instr.chunk, iteration, instr.microbatch, phase)

        def send(instr: Instruction, tensor: np.ndarray, phase: str) -> None:
            chunk = instr.chunk + _PEER[instr.op]
            if chunk % p in stages:
                # the C-order copy the transport would deliver: a
                # receiver's rounding follows its input's strides
                handed[(chunk, instr.microbatch, phase)] = np.array(
                    tensor, order="C")

        self._interpret(stages, batch, order, recv, send)

    def _interpret(
        self,
        stages: dict[int, PipelineStage],
        batch: tuple[list[np.ndarray], list[np.ndarray]],
        order: list[Instruction],
        recv: Callable[[Instruction, str], np.ndarray],
        send: Callable[[Instruction, np.ndarray, str], None],
        failure: FailureEvent | None = None,
    ) -> list[float] | None:
        """THE dispatch on ``Instruction.op`` (all but ``OptimizerStep``).

        ``stages[instr.stage]`` executes each instruction of ``order`` on
        the iteration's micro-batch split ``batch``; where a ``Recv*``
        reads and a ``Send*`` writes is the caller's binding
        (``recv``/``send``), which is all that differs between a live
        step and a replay.  Returns the per-micro-batch losses, or
        ``None`` when ``failure`` fired and the iteration is abandoned.
        """
        xs, ys = batch
        losses: list[float] = []
        fail_on_phase = (
            failure.phase.value if failure is not None else None
        )
        instruction_hits = 0
        last_chunk = self._program.num_chunks - 1
        #: transient per-iteration dataflow: values between recv/compute/send
        #: (and the last chunk's outputs until their loss)
        acts: dict[tuple[int, int], np.ndarray] = {}
        outs: dict[tuple[int, int], np.ndarray] = {}
        grads_in: dict[tuple[int, int], np.ndarray] = {}
        grads_out: dict[tuple[int, int], np.ndarray] = {}
        for instr in order:
            stage = stages[instr.stage]
            if failure is not None and stage.machine_id == failure.machine_id:
                if (
                    fail_on_phase in ("forward", "backward")
                    and instr.op == (
                        "Forward" if fail_on_phase == "forward" else "Backward"
                    )
                    and instr.microbatch >= failure.after_updates
                ):
                    return None
                if (
                    fail_on_phase == "instruction"
                    and instr.op == failure.instruction
                ):
                    if instruction_hits >= failure.after_updates:
                        return None
                    instruction_hits += 1
            key = (instr.chunk, instr.microbatch)
            if instr.op == "LoadMicroBatch":
                acts[key] = xs[instr.microbatch]
            elif instr.op == "RecvActivation":
                acts[key] = recv(instr, "fwd")
            elif instr.op == "Forward":
                outs[key] = stage.forward_mb(
                    instr.microbatch, acts.pop(key), chunk=instr.chunk
                )
            elif instr.op == "SendActivation":
                send(instr, outs.pop(key), "fwd")
            elif instr.op == "RecvGrad":
                grads_in[key] = recv(instr, "bwd")
            elif instr.op == "Backward":
                if instr.chunk == last_chunk:
                    loss_fn = self.loss_factory()
                    losses.append(loss_fn(outs.pop(key), ys[instr.microbatch]))
                    grad = loss_fn.backward() / self.num_microbatches
                else:
                    grad = grads_in.pop(key)
                grad_in = stage.backward_mb(
                    instr.microbatch, grad, chunk=instr.chunk
                )
                if instr.chunk > 0:
                    grads_out[key] = grad_in
            else:  # SendGrad
                send(instr, grads_out.pop(key), "bwd")
        return losses

    def apply_updates(
        self,
        stages: dict[int, PipelineStage],
        failure: FailureEvent | None = None,
    ) -> bool:
        """``OptimizerStep`` per stage, wait-free in completion-time order
        (last stage finishes its backwards first — Figure 1a).  Returns
        ``False`` when ``failure`` fired part-way."""
        timing = self.timing()
        instruction_hits = 0
        updates_done = 0
        for sid in sorted(stages, key=lambda i: timing.stage_finish[i]):
            if failure is not None:
                if (
                    failure.phase == FailurePhase.MID_UPDATE
                    and updates_done >= failure.after_updates
                ):
                    return False
                if (
                    failure.phase == FailurePhase.INSTRUCTION
                    and failure.instruction == "OptimizerStep"
                    and stages[sid].machine_id == failure.machine_id
                ):
                    if instruction_hits >= failure.after_updates:
                        return False
                    instruction_hits += 1
            stages[sid].step()
            updates_done += 1
        return True

    def _fail(self, failure: FailureEvent) -> IterationResult:
        self.cluster.fail_machine(failure.machine_id)
        self.cluster.kvstore.raise_failure(failure.machine_id, self.iteration)
        # the interrupted iteration is abandoned wholesale: no in-flight
        # message may survive into the post-recovery re-run
        self.transport.drop_all()
        # clear in-flight activation caches but KEEP the updated-this-
        # iteration marks: update-undo consumes them during recovery
        for s in self.stages:
            if s.alive:
                s.clear_caches()
        return IterationResult(
            iteration=self.iteration,
            failed=True,
            failed_machine=failure.machine_id,
        )
