"""The three training-through-failures workloads.

One round = build the session (plan, build, 3 warm-up iterations), then
drive ``Session.step`` to the target iteration through a fixed failure
list, then check the result against a failure-free run of the same spec.
Every round of a run does identical work, so rounds must agree bit for
bit with each other.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

import numpy as np

from bench import stats
from bench.spans import SpanLog, installed, train_boundaries
from bench.workload import Deadline, Round

from repro.api import (
    ClusterSpec,
    DataSpec,
    Experiment,
    FaultToleranceSpec,
    ModelSpec,
    ParallelismSpec,
    build_engine,
)
from repro.cluster.failures import FailureEvent, FailurePhase, FailureSchedule
from repro.utils.serialization import state_allclose, state_equal

_clock = time.perf_counter
_P = FailurePhase

WARMUP_STEPS = 3
#: iterations the two traced baselines (bare engine, single worker) run
BASELINE_ITERS = 24


@dataclass(frozen=True)
class TrainSpec:
    hidden: int
    depth: int
    batch: int
    machines: int
    devices: int
    parallelism: dict
    fault_tolerance: dict
    iterations: int
    #: (iteration, machine, phase, after_updates)
    failures: tuple
    #: the strategy promises bitwise equality with the failure-free run
    bitwise: bool


_DP8_PHASES = (_P.FORWARD, _P.MID_UPDATE, _P.BACKWARD, _P.MID_UPDATE)
_PP4_PHASES = (_P.FORWARD, _P.BACKWARD, _P.MID_UPDATE, _P.ITERATION_START)


def _spec(name: str, scale: str) -> TrainSpec:
    tiny = scale == "tiny"
    if name == "dp8_replication_undo":
        return TrainSpec(
            hidden=32 if tiny else 256, depth=2 if tiny else 8, batch=16,
            machines=4, devices=2,
            parallelism=dict(kind="dp", num_workers=8),
            fault_tolerance=dict(strategy="auto",
                                 checkpoint_interval=5 if tiny else 10),
            iterations=14 if tiny else 36,
            failures=tuple(
                (it, k % 4, _DP8_PHASES[k], 3 + 2 * k)
                for k, it in enumerate((4, 7, 9, 12) if tiny
                                       else (7, 15, 23, 31))
            ),
            # update-undo restores the pre-update state to rounding only
            bitwise=False,
        )
    if name == "pp4_logging_replay":
        first, gap = (4, 3) if tiny else (9, 16)
        return TrainSpec(
            hidden=32 if tiny else 256, depth=8, batch=16 if tiny else 32,
            machines=4, devices=1,
            parallelism=dict(kind="pp", num_workers=4,
                             num_microbatches=4 if tiny else 8,
                             schedule="1f1b"),
            fault_tolerance=dict(strategy="logging",
                                 parallel_recovery_degree=2,
                                 checkpoint_after_recovery=True,
                                 checkpoint_interval=6 if tiny else 20),
            iterations=16 if tiny else 64,
            failures=tuple(
                (first + gap * k + k % 3, k % 4, _PP4_PHASES[k], 2)
                for k in range(4)
            ),
            # degree-2 replay re-associates the micro-batch sums
            bitwise=False,
        )
    if name == "pp4_interleaved_restart":
        return TrainSpec(
            hidden=32 if tiny else 256, depth=8, batch=16 if tiny else 32,
            machines=4, devices=1,
            parallelism=dict(kind="pp", num_workers=4,
                             num_microbatches=4 if tiny else 8,
                             schedule="interleaved_1f1b", virtual_stages=2),
            fault_tolerance=dict(strategy="auto",
                                 checkpoint_interval=6 if tiny else 20),
            iterations=14 if tiny else 48,
            failures=((4, 0, _P.FORWARD, 1), (9, 1, _P.BACKWARD, 1)) if tiny
            else ((15, 0, _P.FORWARD, 1), (36, 1, _P.BACKWARD, 1)),
            bitwise=True,
        )
    raise KeyError(name)


def _flat_state(session) -> dict[str, np.ndarray]:
    engine = session.engine
    if session.plan.engine_kind == "pp":
        return {f"{stage}/{k}": v
                for stage, state in sorted(engine.full_state().items())
                for k, v in state.items()}
    return dict(engine.workers[0].full_state())


class TrainWorkload:
    def __init__(self, name: str, seed: int, scale: str, deadline: Deadline):
        self.name = name
        self.seed = seed
        self.spec = _spec(name, scale)
        self.deadline = deadline
        self.oracle_losses: list[float] = []
        self.oracle_state: dict[str, np.ndarray] = {}

    # -- building ------------------------------------------------------------
    def experiment(self, **overrides) -> Experiment:
        s = self.spec
        fields = dict(
            name=self.name,
            model=ModelSpec(family="mlp", dim=16, hidden_dim=s.hidden,
                            depth=s.depth, num_classes=8, optimizer="adam",
                            seed=self.seed),
            data=DataSpec(batch_size=s.batch, seed=self.seed),
            cluster=ClusterSpec(num_machines=s.machines,
                                devices_per_machine=s.devices),
            parallelism=ParallelismSpec(**s.parallelism),
            fault_tolerance=FaultToleranceSpec(**s.fault_tolerance),
        )
        fields.update(overrides)
        return Experiment(**fields)

    def _build(self, log: SpanLog | None):
        start = _clock()
        exp = self.experiment()
        exp.plan()
        session = exp.build()
        if log is not None:
            session.attach_recorder(log.recorder())
        for _ in range(WARMUP_STEPS):
            session.step()
        return session, _clock() - start

    # -- rounds --------------------------------------------------------------
    def cold_round(self) -> Round:
        """Failure-free run of the same spec: the oracle, and the warm-up
        that takes the allocator's first-touch cost out of measured rounds."""
        session, setup_s = self._build(None)
        start = _clock()
        while session.engine.iteration < self.spec.iterations:
            self.deadline.check()
            session.step()
        run_s = _clock() - start
        self.oracle_losses = list(session.trace.losses)
        self.oracle_state = _flat_state(session)
        return Round(setup_s=setup_s, run_s=run_s, ops=[], recoveries=[],
                     attempted=self.spec.iterations)

    def round(self, log: SpanLog | None) -> Round:
        gc.collect()
        if log is None:
            return self._drive(None)
        with installed(log, train_boundaries()):
            return self._drive(log)

    def _drive(self, log: SpanLog | None) -> Round:
        spec = self.spec
        session, setup_s = self._build(log)
        engine, trace = session.engine, session.trace
        schedule = FailureSchedule([
            FailureEvent(machine_id=m, iteration=it, phase=phase,
                         after_updates=after)
            for it, m, phase, after in spec.failures
        ])
        ops: list[float] = []
        ckpt_steps: list[float] = []
        recoveries: list[float] = []
        steps = 0
        recovering = None  # (iteration the failure hit, start of that step)
        start = _clock()
        while engine.iteration < spec.iterations:
            self.deadline.check()
            checkpoints = len(trace.checkpoints)
            at = engine.iteration
            t0 = _clock()
            result = session.step(schedule)
            t1 = _clock()
            steps += 1
            if result.failed:
                kind = "failed"
                recovering = (at, t0)
            elif recovering is not None:
                kind = "recovering"
            elif len(trace.checkpoints) > checkpoints:
                kind = "checkpoint"
                ckpt_steps.append(t1 - t0)
            else:
                kind = "op"
                ops.append(t1 - t0)
            if log is not None:
                log.add("harness.step", t0, t1, {"kind": kind})
            # a recovery ends when the interrupted iteration has completed:
            # the step that re-runs it still pays for rebuilt buffers, and
            # a global restart first re-executes everything it rolled back
            if recovering is not None and engine.iteration > recovering[0]:
                recoveries.append(t1 - recovering[1])
                recovering = None
        run_s = _clock() - start

        rnd = Round(setup_s=setup_s, run_s=run_s, ops=ops,
                    recoveries=recoveries, attempted=steps,
                    extra={"core.ckpt_step_ms_p50": ckpt_steps}, spans=log)
        self._verify(session, rnd)
        rnd.exact = self._exact(session)
        if log is not None:
            rnd.layer, counted = _layer_metrics(log, session, spec)
            rnd.exact.update(counted)
        return rnd

    # -- oracles -------------------------------------------------------------
    def _verify(self, session, rnd: Round) -> None:
        spec, trace = self.spec, session.trace
        rnd.check(len(trace.recoveries) == len(spec.failures),
                  f"{len(trace.recoveries)} recoveries for "
                  f"{len(spec.failures)} injected failures")
        losses = dict(zip(trace.iteration_numbers, trace.losses))
        # a pipeline MID_UPDATE crash resolves forward through replay and
        # leaves no loss row for that iteration
        forward = sum(
            1 for _, _, phase, _ in spec.failures
            if phase is _P.MID_UPDATE and session.plan.engine_kind == "pp"
        )
        have = sorted(i for i in losses if i < spec.iterations)
        rnd.check(len(have) >= spec.iterations - forward,
                  f"loss trace covers {len(have)} of {spec.iterations} "
                  "iterations")
        mine = np.array([losses[i] for i in have])
        want = np.array([self.oracle_losses[i] for i in have])
        state = _flat_state(session)
        if spec.bitwise:
            rnd.check(np.array_equal(mine, want),
                      "loss trace differs from the failure-free run")
            rnd.check(state_equal(state, self.oracle_state),
                      "final state differs from the failure-free run")
        else:
            rnd.check(np.allclose(mine, want, rtol=1e-5, atol=1e-7),
                      "loss trace not close to the failure-free run")
            rnd.check(state_allclose(state, self.oracle_state),
                      "final state not close to the failure-free run")
        rnd.digest = stats.digest(
            mine, *(state[k] for k in sorted(state)), trace.total_time,
        )

    def _exact(self, session) -> dict[str, float]:
        trace, reports = session.trace, session.trace.recoveries
        return {
            "core.sim_total_s": trace.total_time,
            "core.sim_recovery_s": trace.recovery_time_total,
            "core.sim_detect_s": sum(r.detection_time for r in reports),
            "core.sim_rollback_s": sum(r.undo_time for r in reports),
            "core.sim_rejoin_s": sum(r.init_time for r in reports),
            "core.sim_replay_s": sum(r.restore_time for r in reports),
            "core.lost_iterations": sum(r.lost_iterations for r in reports),
            "core.sim_goodput": trace.goodput(self.spec.batch),
            "core.reexecuted_iters": (len(trace.iteration_numbers)
                                      - len(set(trace.iteration_numbers))),
            "core.ckpt_store_bytes": session.cluster.global_store.used_bytes(),
        }

    # -- traced extras: the two baselines ------------------------------------
    def extras(self) -> dict[str, float]:
        """Bare-engine and single-worker iteration times (no failures)."""
        engine = build_engine(self.experiment().plan())
        solo = self.experiment(
            cluster=ClusterSpec(num_machines=1, devices_per_machine=1),
            parallelism=ParallelismSpec(kind="dp", num_workers=1),
            fault_tolerance=FaultToleranceSpec(
                checkpoint_interval=10 * BASELINE_ITERS),
        ).build()
        return {
            "baseline.engine_only_iter_ms_p50":
                self._best_block_ms(engine.run_iteration),
            "baseline.dp1_iter_ms_p50": self._best_block_ms(solo.step),
        }

    def _best_block_ms(self, step) -> float:
        """Median step time of the best of three blocks, like the best
        round the end-to-end metrics report."""
        walls = []
        for _ in range(WARMUP_STEPS + BASELINE_ITERS):
            self.deadline.check()
            t0 = _clock()
            step()
            walls.append(_clock() - t0)
        walls = walls[WARMUP_STEPS:]
        third = BASELINE_ITERS // 3
        return min(stats.median(walls[i:i + third])
                   for i in range(0, BASELINE_ITERS, third)) * 1e3


def _layer_metrics(log: SpanLog, session, spec: TrainSpec):
    """(timings, exact counts) of one traced round."""
    n = max(1, len(log.named("trainer/iteration")))
    ms = lambda name: log.total(name) / n * 1e3            # noqa: E731
    p50 = lambda name, k: stats.median(log.durations(name)) * k  # noqa: E731
    span_bytes = lambda name: sum(                          # noqa: E731
        int(r[3]["bytes"]) for r in log.named(name) if r[3])

    timings = {
        "nn.fwd_bwd_ms_per_iter": ms("engine/forward_backward"),
        "optim.step_ms_per_iter": ms("engine/optimizer"),
        "comm.allreduce_ms_per_iter": ms("engine/allreduce"),
        "comm.p2p_send_us_p50": p50("comm.p2p_send", 1e6),
        "comm.p2p_recv_us_p50": p50("comm.p2p_recv", 1e6),
        "comm.p2p_recv_matching_us_p50": p50("comm.p2p_recv_matching", 1e6),
        "parallel.schedule_ms_per_iter": ms("engine/schedule"),
        "parallel.stage_compute_ms_per_iter":
            ms("parallel.stage_compute") + ms("parallel.stage_step"),
        "core.tlog_tap_us_p50": p50("core.tlog_tap", 1e6),
        "core.tlog_gc_ms_p50": p50("core.tlog_gc", 1e3),
        "core.ckpt_capture_ms_p50": p50("checkpoint/capture", 1e3),
        "core.ckpt_persist_ms_p50": p50("checkpoint/persist", 1e3),
        "core.ckpt_load_ms_p50": p50("core.ckpt_load", 1e3),
        "cluster.store_upload_us_p50": p50("cluster.store_upload", 1e6),
        "cluster.store_download_us_p50": p50("cluster.store_download", 1e6),
        "utils.pool_capture_us_p50": p50("utils.pool_capture", 1e6),
        "utils.cow_capture_us_p50": p50("utils.cow_capture", 1e6),
    }
    exact = {
        "comm.allreduce_calls_per_iter":
            len(log.named("engine/allreduce")) / n,
        "comm.allreduce_bytes_per_iter": span_bytes("engine/allreduce") / n,
        "comm.p2p_msgs_per_iter": len(log.named("comm.p2p_send")) / n,
        "comm.p2p_bytes_per_iter": span_bytes("comm.p2p_send") / n,
        "core.tlog_records_per_iter": len(log.named("core.tlog_tap")) / n,
        "cluster.store_bytes_written": span_bytes("cluster.store_upload"),
        "obs.events_per_iter": log.counts.get("obs.events", 0.0) / n,
    }

    engine = session.engine
    instructions = 0
    if session.plan.engine_kind == "pp":
        instructions = sum(len(s) for s in engine.program().streams)
        timing = engine.timing()
        exact["parallel.bubble_share_sim"] = (
            sum(timing.stage_bubble)
            / (len(timing.stage_bubble) * timing.iteration_time)
        )
        p2p = sum(log.total(f"comm.p2p_{k}")
                  for k in ("send", "recv", "recv_matching"))
        timings["parallel.interp_us_per_instr"] = (
            (log.total("engine/schedule") - log.total("parallel.stage_compute")
             - p2p) / (n * instructions) * 1e6
        )
    exact["parallel.instr_per_iter"] = instructions

    tlog = session.trainer.tlog
    if tlog is not None:
        exact["core.tlog_bytes_per_iter"] = stats.median(
            list(tlog.bytes_per_iteration.values()))
        exact["core.tlog_peak_bytes"] = log.counts.get("max:tlog/bytes", 0.0)
    pool = session.trainer.pool
    if pool is not None:
        pstats = pool.stats()
        captures = pstats["hits"] + pstats["misses"]
        exact["utils.pool_reuse_ratio"] = (
            pstats["hits"] / captures if captures else 0.0)
        exact["utils.pool_idle_bytes"] = pstats["idle_bytes"]

    # recoveries arrive in failure order: the k-th trainer/recovery span
    # belongs to the k-th scheduled failure
    by_kind: dict[str, list[float]] = {}
    replay_s = 0.0
    spans = sorted(log.named("trainer/recovery"), key=lambda r: r[1])
    for row, (_, _, phase, _) in zip(spans, sorted(spec.failures)):
        strategy = (row[3] or {}).get("strategy", "")
        if strategy == "replication":
            kind = "undo" if phase is _P.MID_UPDATE else "replication"
        elif strategy.startswith("logging"):
            kind = "logging"
            replay_s += row[2] - row[1]
        else:
            kind = "restart"
        by_kind.setdefault(kind, []).append(row[2] - row[1])
    for kind, walls in by_kind.items():
        timings[f"core.recover_{kind}_ms_p50"] = stats.median(walls) * 1e3
    lost = sum(r.lost_iterations for r in session.trace.recoveries)
    if replay_s and lost:
        timings["core.replay_ms_per_lost_iter"] = replay_s / lost * 1e3

    # step wall not covered by any trainer/checkpoint span, clean steps only
    self_s = [node["self"] for node in log.nested()
              if node["name"] == "harness.step"
              and node["attrs"]["kind"] == "op"]
    timings["core.trainer_self_ms_per_iter"] = stats.mean(self_s) * 1e3
    return timings, exact
