"""The benchmark's catalogue: workloads, end-to-end and per-layer metrics.

Single source of truth.  ``BENCHMARK.json`` at the repo root is generated
from it (``python3 bench/run.py --write-manifest``) and the smoke test
checks the two agree; ``bench/README.md`` explains every entry.

Every workload reports every end-to-end metric, so the names are roles
rather than subsystem words; ``OPERATION`` and ``RECOVERY`` say what
each role means on each workload.
"""

from __future__ import annotations

#: seconds one run measures (the ``--seconds`` the driver passes)
RUN_SECONDS = 15

WORKLOADS = (
    ("dp8_replication_undo",
     "DP-8 MLP through 4 machine failures: compute, all-reduce, fused "
     "optimizer, COW checkpoint capture, replication + update-undo; "
     "bypasses p2p, tensor log, WAL, planner"),
    ("pp4_logging_replay",
     "PP-4 1f1b with tensor logging, 4 failures, degree-2 replay: "
     "instruction interpreter, transport, buffer pool; the log is "
     "written every iteration and read during replay"),
    ("pp4_interleaved_restart",
     "PP-4 interleaved_1f1b (v=2), checkpoint-only global restart: "
     "recv_matching and checkpoint reads instead of writes; no tensor "
     "log, so it is the bypass for tap/replay changes"),
    ("serve_steady_flat",
     "closed-loop client against a flat single-file WAL, arrivals near "
     "service rate: protocol parse, admission, WAL append and state fold "
     "dominate; the queue stays short, no rotation"),
    ("serve_burst_segmented",
     "client bursting 90 jobs into a segmented WAL (default segment "
     "size): deep-queue placement, rotation, snapshot anchors and "
     "anchored recovery; the steady workload bypasses all four"),
    ("autoplan_exhaustive",
     "exhaustive plan search over ~1000 candidates then a re-plan under "
     "another scenario: enumeration, pruning, memoised pricing over "
     "chaos traces; no engine or WAL code runs"),
)

#: what one "operation" is on each workload (``op_ms_p50``/``op_ms_p90``)
OPERATION = {
    "dp8_replication_undo": "Session.step that neither checkpointed nor failed",
    "pp4_logging_replay": "Session.step that neither checkpointed nor failed",
    "pp4_interleaved_restart": "Session.step that neither checkpointed nor failed",
    "serve_steady_flat": "ServeClient.submit round trip (request, admission, WAL append, ack), short queue",
    "serve_burst_segmented": "ServeClient.submit round trip, queue filling up",
    "autoplan_exhaustive": "one cold autoplan() search on a fresh space",
}

#: what "recovery" is on each workload (``recover_ms``)
RECOVERY = {
    "dp8_replication_undo": "failed Session.step: detect, undo, rejoin, broadcast (mean of 4; 2 are MID_UPDATE)",
    "pp4_logging_replay": "failed Session.step: detect, rejoin, degree-2 replay from the log, re-baseline checkpoint (mean of 4)",
    "pp4_interleaved_restart": "failed Session.step plus the re-executed steps until the failure iteration is reached again (mean of 2)",
    "serve_steady_flat": "ServeServer(path) reopening the finished WAL (5 per round)",
    "serve_burst_segmented": "ServeServer(path) reopening the finished segment directory (5 per round)",
    "autoplan_exhaustive": "autoplan() again on the warm space after the failure scenario changes",
}

#: (name, unit, better, bound) — bounds were set from two measured sets
#: of ten runs per workload (bench/README.md, "How the bounds were set")
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("op_ms_p90", "ms", "lower", 0.25),
    ("recover_ms", "ms", "lower", 0.25),
)

#: (name, unit, better, end-to-end metric it should move and where)
PER_LAYER = (
    # -- compute + collectives (recorder spans engine/*) -------------------
    ("nn.fwd_bwd_ms_per_iter", "ms", "lower", "op_ms_p50 on dp8; little on pp"),
    ("optim.step_ms_per_iter", "ms", "lower", "op_ms_p50 on dp8 (~1/3 of a step)"),
    ("comm.allreduce_ms_per_iter", "ms", "lower", "op_ms_p50 on dp8; none on pp"),
    ("comm.allreduce_calls_per_iter", "count", "lower", "exact count; dp8 only"),
    ("comm.allreduce_bytes_per_iter", "bytes", "lower", "exact count; dp8 only"),
    # -- p2p transport (wrapped Transport.send/recv/recv_matching) ---------
    ("comm.p2p_send_us_p50", "us", "lower", "op_ms_p50 on both pp workloads"),
    ("comm.p2p_recv_us_p50", "us", "lower", "op_ms_p50 on pp4_logging_replay"),
    ("comm.p2p_recv_matching_us_p50", "us", "lower", "op_ms_p50 on pp4_interleaved_restart only"),
    ("comm.p2p_msgs_per_iter", "count", "lower", "exact count; pp only"),
    ("comm.p2p_bytes_per_iter", "bytes", "lower", "exact count; pp only"),
    # -- pipeline engine ---------------------------------------------------
    ("parallel.schedule_ms_per_iter", "ms", "lower", "op_ms_p50 on pp; none on dp8"),
    ("parallel.stage_compute_ms_per_iter", "ms", "lower", "op_ms_p50 on pp"),
    ("parallel.instr_per_iter", "count", "lower", "exact count from engine.program()"),
    ("parallel.interp_us_per_instr", "us", "lower", "op_ms_p50 on pp (interpreter overhead)"),
    ("parallel.bubble_share_sim", "ratio", "lower", "exact, from engine.timing(); guards the schedule"),
    # -- tensor log --------------------------------------------------------
    ("core.tlog_tap_us_p50", "us", "lower", "op_ms_p50 on pp4_logging_replay only"),
    ("core.tlog_records_per_iter", "count", "lower", "exact count; pp4_logging_replay only"),
    ("core.tlog_bytes_per_iter", "bytes", "lower", "exact count; pp4_logging_replay only"),
    ("core.tlog_peak_bytes", "bytes", "lower", "exact count; pp4_logging_replay only"),
    ("core.tlog_gc_ms_p50", "ms", "lower", "checkpoint steps on pp4_logging_replay"),
    # -- checkpoints -------------------------------------------------------
    ("core.ckpt_step_ms_p50", "ms", "lower", "run_s on the train workloads (untraced Session.step that checkpointed)"),
    ("core.ckpt_capture_ms_p50", "ms", "lower", "core.ckpt_step_ms_p50 everywhere (capture, not persist, is the cost)"),
    ("core.ckpt_persist_ms_p50", "ms", "lower", "core.ckpt_step_ms_p50; ~0 today"),
    ("core.ckpt_load_ms_p50", "ms", "lower", "recover_ms on pp4_interleaved_restart"),
    ("core.ckpt_store_bytes", "bytes", "lower", "exact count"),
    # -- recovery ----------------------------------------------------------
    ("core.recover_replication_ms_p50", "ms", "lower", "recover_ms on dp8 (plain failures)"),
    ("core.recover_undo_ms_p50", "ms", "lower", "recover_ms on dp8 (MID_UPDATE failures)"),
    ("core.recover_logging_ms_p50", "ms", "lower", "recover_ms on pp4_logging_replay"),
    ("core.recover_restart_ms_p50", "ms", "lower", "recover_ms on pp4_interleaved_restart (rollback only)"),
    ("core.replay_ms_per_lost_iter", "ms", "lower", "recover_ms on pp4_logging_replay"),
    ("core.reexecuted_iters", "count", "lower", "exact count; run_s on pp4_interleaved_restart"),
    ("core.trainer_self_ms_per_iter", "ms", "lower", "op_ms_p50 on train workloads (step wall - trainer/iteration)"),
    ("core.ft_overhead_share", "ratio", "lower", "1 - bare engine p50 / op_ms_p50"),
    ("baseline.engine_only_iter_ms_p50", "ms", "lower", "base of core.ft_overhead_share"),
    ("baseline.dp1_iter_ms_p50", "ms", "lower", "single-worker run of the same task"),
    # -- simulated time (unit sim_s, not wall seconds): must repeat bit for
    # bit; guards the paper's numbers, not speed
    ("core.sim_total_s", "sim_s", "lower", "exact; no wall-clock metric"),
    ("core.sim_recovery_s", "sim_s", "lower", "exact; no wall-clock metric"),
    ("core.sim_detect_s", "sim_s", "lower", "exact; no wall-clock metric"),
    ("core.sim_rollback_s", "sim_s", "lower", "exact; no wall-clock metric"),
    ("core.sim_rejoin_s", "sim_s", "lower", "exact; no wall-clock metric"),
    ("core.sim_replay_s", "sim_s", "lower", "exact; no wall-clock metric"),
    ("core.lost_iterations", "count", "lower", "exact; no wall-clock metric"),
    ("core.sim_goodput", "1/s", "higher", "exact; no wall-clock metric"),
    # -- cluster + utils ---------------------------------------------------
    ("cluster.store_upload_us_p50", "us", "lower", "core.ckpt_persist_ms_p50"),
    ("cluster.store_download_us_p50", "us", "lower", "core.ckpt_load_ms_p50"),
    ("cluster.store_bytes_written", "bytes", "lower", "exact count"),
    ("utils.pool_capture_us_p50", "us", "lower", "comm.p2p_send_us_p50 on pp"),
    ("utils.pool_reuse_ratio", "ratio", "higher", "exact; pool hits / captures"),
    ("utils.pool_idle_bytes", "bytes", "lower", "exact count"),
    ("utils.cow_capture_us_p50", "us", "lower", "core.ckpt_persist_ms_p50"),
    # -- control plane -----------------------------------------------------
    ("serve.tcp_fsync_ack_ms_p50", "ms", "lower", "the steady script over TCP with fsync on: where group commit shows"),
    ("serve.tcp_fsync_ack_ms_p99", "ms", "lower", "same run, p99 (360 samples)"),
    ("serve.tcp_fsync_tick_ms_p50", "ms", "lower", "same run, tick(1) round trip (~7 fsyncs)"),
    ("serve.fsync_append_us_p50", "us", "lower", "serve.tcp_fsync_ack_ms_p50"),
    ("serve.fsync_append_us_p99", "us", "lower", "serve.tcp_fsync_ack_ms_p99"),
    ("serve.submit_ack_ms_p99", "ms", "lower", "tail of op_ms on the serve workloads (untraced)"),
    ("serve.tick_ms_p50", "ms", "lower", "run_s on serve workloads (untraced tick(1) round trip)"),
    ("serve.protocol_self_us_p50", "us", "lower", "op_ms_p50 on serve (handle_request minus nested submit)"),
    ("serve.submit_core_us_p50", "us", "lower", "op_ms_p50 on serve"),
    ("serve.wal_append_us_p50", "us", "lower", "op_ms_p50 on serve_steady_flat; may not raise recover_ms"),
    ("serve.wal_append_us_p99", "us", "lower", "serve.submit_ack_ms_p99"),
    ("serve.wal_appends_per_submit", "count", "lower", "exact count"),
    ("serve.wal_appends_per_tick", "count", "lower", "exact count"),
    ("serve.state_apply_us_p50", "us", "lower", "op_ms_p50 on serve"),
    ("serve.client_overhead_us_p50", "us", "lower", "op_ms_p50 on serve (round trip - handle_request)"),
    ("serve.tick_ms_p50_shallow", "ms", "lower", "serve.tick_ms_p50 (queue <= 10)"),
    ("serve.tick_ms_p50_deep", "ms", "lower", "run_s on serve_burst_segmented (queue >= 50)"),
    ("serve.queue_depth_max", "count", "lower", "exact count"),
    ("serve.wal_event_bytes", "bytes", "lower", "exact count"),
    ("serve.wal_bytes_on_disk", "bytes", "lower", "exact count; run_s on serve_burst_segmented"),
    ("serve.wal_write_amplification", "ratio", "lower", "exact; bytes on disk / event bytes"),
    ("serve.wal_segment_files", "count", "lower", "exact count; burst only"),
    ("serve.wal_rotations", "count", "lower", "exact count; burst only"),
    ("serve.snapshot_ms_p50", "ms", "lower", "op_ms_p90 on serve_burst_segmented (rotation anchors)"),
    ("serve.snapshot_bytes_max", "bytes", "lower", "exact count"),
    ("serve.recover_parse_ms", "ms", "lower", "recover_ms on serve"),
    ("serve.recover_fold_ms", "ms", "lower", "recover_ms on serve"),
    ("serve.recover_events_replayed", "count", "lower", "exact count"),
    ("serve.recover_fraction", "ratio", "lower", "exact; replayed / total events"),
    # -- planner -----------------------------------------------------------
    ("plan.enumerated", "count", "lower", "exact count"),
    ("plan.feasible", "count", "lower", "exact count"),
    ("plan.pruned_total", "count", "higher", "exact count"),
    ("plan.cache_hit_rate", "ratio", "higher", "exact; run_s on autoplan_exhaustive"),
    ("plan.enumerate_ms", "ms", "lower", "run_s on autoplan_exhaustive (feasibility checks)"),
    ("plan.score_miss_us_p50", "us", "lower", "run_s on autoplan_exhaustive"),
    ("plan.score_hit_us_p50", "us", "lower", "run_s on autoplan_exhaustive"),
    ("chaos.sample_traces_ms", "ms", "lower", "run_s on autoplan_exhaustive"),
    ("chaos.evaluate_trace_us_p50", "us", "lower", "plan.score_miss_us_p50"),
    # -- the instrument itself ---------------------------------------------
    ("obs.events_per_iter", "count", "lower", "exact count; obs.trace_overhead_share"),
    ("obs.trace_overhead_share", "ratio", "lower", "(traced run_s - untraced) / untraced"),
    ("harness.cold_run_s", "s", "lower", "the discarded first round of the process"),
    ("harness.unattributed_share", "ratio", "lower", "1 - sum of layer self time / traced run_s"),
)

#: per-layer metrics that are exact counts: they must repeat bit for bit
#: between rounds of one run (the run fails otherwise) and between runs
EXACT = frozenset(
    name for name, unit, _, moves in PER_LAYER
    if moves.startswith("exact")
)


def manifest() -> dict:
    """The ``BENCHMARK.json`` document, exactly the contract's keys."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER
        ],
    }
