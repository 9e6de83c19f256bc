"""Control-plane benchmark: traffic, replay, crash + network drills.

Five measurements of :mod:`repro.serve`, the WAL-backed multi-tenant
control plane:

1. **traffic** — drive the server with deterministic synthetic tenant
   traffic (bursty, diurnal, priority-mixed — the arrival shapes real
   training fleets see) and report events logged, rounds, goodput, and
   scheduling churn (preemptions, crashes ridden through);
2. **replay throughput** — reopen a large WAL the way a restarted
   server does, parsing and checksumming every line and then folding it
   through :meth:`repro.serve.ServeState.apply`, and report events/second
   over both with each half's time (``parse_s``, ``fold_s``); this is
   the recovery-latency currency (a restarted control plane is back when
   the fold finishes), gated in CI at ``--min-replay-eps``;
3. **crash drills** — run :func:`repro.serve.control_plane_drill`
   against each traffic profile and count acknowledged submissions lost
   across every kill point.  Gated at exactly zero — the ISSUE's
   headline robustness claim;
4. **network drills** — :func:`repro.serve.network_drill`'s netchaos ×
   crash-restart × corruption matrix, gated at zero acked loss, zero
   duplicate admissions, and bitwise baseline equality per cell;
5. **segmented replay** — recover a segmented WAL and gate the two
   byte bounds the rotation rules state: the anchored fold replays at
   most ``max(segment_bytes, anchor bytes) + segment_bytes`` (+ one
   event) of log, the directory holds at most
   :data:`MAX_WRITE_AMPLIFICATION` bytes per event byte — and the fold
   lands bitwise on the genesis fold's state.  The reopen must open
   exactly the files of the newest anchor's chain (``segments_read``,
   counted by its ``wal/parse`` spans), no file behind it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from _common import emit, fmt_table, write_bench_json
from repro.obs import TraceRecorder
from repro.serve import (
    SegmentedWriteAheadLog,
    ServeConfig,
    ServeServer,
    ServeState,
    WriteAheadLog,
    control_plane_drill,
    network_drill,
    run_script,
    synthetic_traffic,
)

PROFILES = ("bursty", "diurnal", "priority-mixed")

#: gate: bytes on disk per byte of events in a segmented WAL (snapshots
#: behind the newest are paid for by the events after them, the newest is
#: one state, and a state is no bigger than its history)
MAX_WRITE_AMPLIFICATION = 3.0


def bench_config() -> ServeConfig:
    return ServeConfig(num_machines=8, devices_per_machine=4,
                       num_spares=1, repair_ticks=3,
                       snapshot_interval=20)


def run_profile(profile: str, num_jobs: int, seed: int,
                tmpdir: str) -> dict:
    """One uninterrupted run of a synthetic traffic profile."""
    script = synthetic_traffic(profile, num_jobs=num_jobs, seed=seed)
    path = f"{tmpdir}/{profile}-{seed}.jsonl"
    with ServeServer(path, bench_config(), fsync=False) as server:
        start = time.perf_counter()
        run_script(server, script)
        wall = time.perf_counter() - start
        state = server.state
        kinds: dict[str, int] = {}
        for event in server.wal.events:
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
        return {
            "profile": profile,
            "seed": seed,
            "jobs": num_jobs,
            "events": len(server.wal.events),
            "rounds": state.round,
            "goodput": state.goodput(),
            "completed": sum(1 for j in state.jobs.values()
                             if j["status"] == "completed"),
            "rejected": kinds.get("reject", 0),
            "preemptions": kinds.get("preempt", 0),
            "crashes": kinds.get("crash", 0),
            "wall_seconds": wall,
            "wal_path": path,
        }


def bench_replay(wal_path: str, repeats: int) -> dict:
    """Parse and fold the same WAL repeatedly; report the best run's
    events/second over both and its parse and fold seconds."""
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        events = WriteAheadLog.load_events(wal_path)
        parsed = time.perf_counter()
        state = ServeState.replay(events)
        folded = time.perf_counter()
        if best is None or folded - start < sum(best):
            best = (parsed - start, folded - parsed)
    assert state.last_seq == len(events) - 1
    return {"events": len(events), "best_eps": len(events) / sum(best),
            "parse_s": best[0], "fold_s": best[1]}


def bench_drill(profile: str, num_jobs: int, kill_points: int,
                seed: int) -> dict:
    """Crash the control plane under one profile; count acked losses."""
    script = synthetic_traffic(profile, num_jobs=num_jobs, seed=seed)
    report = control_plane_drill(bench_config(), script,
                                 kill_points=kill_points)
    return {
        "profile": profile,
        "kill_points": len(report.results),
        "baseline_events": report.baseline_events,
        "acked_jobs_lost": report.acked_jobs_lost,
        "passed": report.passed,
    }


def bench_netchaos(seed: int, workdir: str) -> dict:
    """The full netchaos × crash-restart × corruption matrix."""
    start = time.perf_counter()
    report = network_drill(seed=seed, workdir=workdir)
    wall = time.perf_counter() - start
    return {
        "cells": [
            {
                "cell": c.cell,
                "frames": c.frames,
                "restarts": c.restarts,
                "acked": c.acked,
                "acked_lost": c.acked_lost,
                "duplicate_admissions": c.duplicate_admissions,
                "final_state_equal": c.final_state_equal,
                "events_equal": c.events_equal,
                "quarantined": c.quarantined,
                "unverified": len(c.unverified),
                "passed": c.passed,
            }
            for c in report.cells
        ],
        "baseline_events": report.baseline_events,
        "acked_lost": report.acked_lost,
        "duplicate_admissions": report.duplicate_admissions,
        "passed": report.passed,
        "wall_seconds": wall,
    }


def bench_segmented_replay(num_jobs: int, segment_bytes: int,
                           tmpdir: str) -> dict:
    """Recovery cost of a segmented WAL vs a genesis fold.

    Runs a bursty profile onto snapshot-anchored segments, then times a
    cold anchored recovery against a full-history fold of the same log.
    ``replayed_event_bytes`` against ``replay_bound_bytes`` and
    ``bytes_on_disk`` against ``event_bytes`` are what CI gates on.
    """
    script = synthetic_traffic("bursty", num_jobs=num_jobs, seed=0)
    path = f"{tmpdir}/segmented-wal"
    with ServeServer(path, bench_config(), fsync=False,
                     segment_bytes=segment_bytes) as server:
        run_script(server, script)
        total_events = server.wal.next_seq
        final_snapshot = server.state.snapshot()

    recorder = TraceRecorder()
    start = time.perf_counter()
    wal = SegmentedWriteAheadLog(path, fsync=False, recorder=recorder)
    anchored_state = wal.recover_state()
    anchored_wall = time.perf_counter() - start
    segments_read = sum(e.name == "wal/parse"
                        for e in recorder.trace("reopen").events)
    # the newest anchor's chain, read off the headers: a snapshot or
    # genesis starts it, every later file belongs to it
    headers = [json.loads(p.read_text().partition("\n")[0])
               for p in sorted(Path(path).glob("segment-*.jsonl"))]
    chain_segments = len(headers) - max(
        i for i, h in enumerate(headers)
        if h["snapshot"] is not None or h["base_seq"] == 0)
    tail_events = len(wal.events)
    segment_count = wal.segment_count
    anchor_bytes = len(wal.anchor_snapshot or "")
    all_events = wal.all_events()
    wal.close()
    line_bytes = [len(e.to_json()) + 1 for e in all_events]
    on_disk = sum(f.stat().st_size for f in Path(path).iterdir())

    start = time.perf_counter()
    genesis_state = ServeState.replay(all_events)
    genesis_wall = time.perf_counter() - start

    return {
        "segment_bytes": segment_bytes,
        "segments": segment_count,
        "segments_read": segments_read,
        "chain_segments": chain_segments,
        "bytes_on_disk": on_disk,
        "event_bytes": sum(line_bytes),
        "total_events": total_events,
        "recovered_events": tail_events,
        "replayed_event_bytes": wal.event_bytes,
        "anchor_bytes": anchor_bytes,
        "replay_bound_bytes": max(segment_bytes, anchor_bytes)
        + segment_bytes + max(line_bytes),
        "anchored_wall_seconds": anchored_wall,
        "genesis_fold_wall_seconds": genesis_wall,
        "anchored_equals_genesis":
            anchored_state.snapshot() == genesis_state.snapshot(),
        "anchored_equals_live":
            anchored_state.snapshot() == final_snapshot,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: fewer jobs and kill points")
    parser.add_argument("--min-replay-eps", type=float, default=10_000,
                        help="gate: WAL replay must sustain at least "
                             "this many events/second")
    parser.add_argument("--max-acked-loss", type=int, default=0,
                        help="gate: acknowledged submissions lost "
                             "across all drills (the contract is 0)")
    parser.add_argument("--segment-bytes", type=int, default=8192,
                        help="bytes of events per segment for the "
                             "segmented-replay measurement")
    args = parser.parse_args(argv)
    num_jobs = 12 if args.quick else 30
    kill_points = 3 if args.quick else 5
    repeats = 3 if args.quick else 5

    import tempfile

    tmpdir = tempfile.mkdtemp(prefix="repro-bench-serve-")

    traffic = [run_profile(p, num_jobs, seed=0, tmpdir=tmpdir)
               for p in PROFILES]
    emit("serve_traffic", fmt_table(
        ["profile", "jobs", "events", "rounds", "completed", "rejected",
         "preempt", "crashes", "goodput smp/s"],
        [[t["profile"], t["jobs"], t["events"], t["rounds"],
          t["completed"], t["rejected"], t["preemptions"], t["crashes"],
          f"{t['goodput']:.1f}"] for t in traffic],
    ))

    # replay the busiest profile's WAL (recovery-latency currency)
    busiest = max(traffic, key=lambda t: t["events"])
    replay = bench_replay(busiest["wal_path"], repeats)
    drills = [bench_drill(p, num_jobs, kill_points, seed=0)
              for p in PROFILES]
    emit("serve_drills", fmt_table(
        ["profile", "kill points", "baseline events", "acked lost",
         "passed"],
        [[d["profile"], d["kill_points"], d["baseline_events"],
          d["acked_jobs_lost"], d["passed"]] for d in drills],
    ))
    print(f"replay: {replay['events']} events at "
          f"{replay['best_eps']:.0f} events/s (parse "
          f"{replay['parse_s'] * 1e3:.1f} ms + fold "
          f"{replay['fold_s'] * 1e3:.1f} ms, best of {repeats})")

    netchaos = bench_netchaos(seed=0, workdir=f"{tmpdir}/netchaos")
    emit("serve_netchaos", fmt_table(
        ["cell", "frames", "restarts", "acked", "lost", "dup",
         "state==", "events==", "quarantined", "unverified"],
        [[c["cell"], c["frames"], c["restarts"], c["acked"],
          c["acked_lost"], c["duplicate_admissions"],
          c["final_state_equal"], c["events_equal"], c["quarantined"],
          c["unverified"]]
         for c in netchaos["cells"]],
    ))

    segmented = bench_segmented_replay(num_jobs, args.segment_bytes,
                                       tmpdir)
    amplification = segmented["bytes_on_disk"] / segmented["event_bytes"]
    print(f"segmented replay: {segmented['recovered_events']} of "
          f"{segmented['total_events']} events folded "
          f"({segmented['replayed_event_bytes']} B, bound "
          f"{segmented['replay_bound_bytes']} B); "
          f"{segmented['segments']} segments "
          f"({segmented['segments_read']} read on reopen, anchor chain "
          f"{segmented['chain_segments']}), "
          f"{segmented['bytes_on_disk']} B on disk for "
          f"{segmented['event_bytes']} B of events "
          f"({amplification:.2f}x)")

    total_lost = sum(d["acked_jobs_lost"] for d in drills)
    write_bench_json("serve", {
        "traffic": [{k: v for k, v in t.items() if k != "wal_path"}
                    for t in traffic],
        "replay": replay,
        "drills": drills,
        "netchaos": netchaos,
        "segmented_replay": segmented,
        "gates": {
            "min_replay_eps": args.min_replay_eps,
            "max_acked_loss": args.max_acked_loss,
            "acked_jobs_lost": total_lost,
            "replay_bound_bytes": segmented["replay_bound_bytes"],
            "replayed_event_bytes": segmented["replayed_event_bytes"],
            "chain_segments": segmented["chain_segments"],
            "segments_read": segmented["segments_read"],
            "max_write_amplification": MAX_WRITE_AMPLIFICATION,
            "write_amplification": amplification,
            "netchaos_acked_lost": netchaos["acked_lost"],
            "netchaos_duplicate_admissions":
                netchaos["duplicate_admissions"],
        },
    })

    failed = []
    if replay["best_eps"] < args.min_replay_eps:
        failed.append(
            f"replay sustained {replay['best_eps']:.0f} events/s "
            f"< gate {args.min_replay_eps:.0f}"
        )
    if total_lost > args.max_acked_loss:
        failed.append(
            f"{total_lost} acknowledged submission(s) lost "
            f"(gate: {args.max_acked_loss})"
        )
    if any(not d["passed"] for d in drills):
        failed.append("a crash drill diverged from its baseline")
    if not netchaos["passed"]:
        failed.append("a network drill cell diverged from its baseline")
    if netchaos["acked_lost"] > 0:
        failed.append(
            f"{netchaos['acked_lost']} acked submission(s) lost under "
            f"network faults (gate: 0)"
        )
    if netchaos["duplicate_admissions"] > 0:
        failed.append(
            f"{netchaos['duplicate_admissions']} duplicate "
            f"admission(s) under network faults (gate: 0)"
        )
    if segmented["replayed_event_bytes"] > segmented["replay_bound_bytes"]:
        failed.append(
            f"anchored recovery replayed "
            f"{segmented['replayed_event_bytes']} B of events "
            f"(bound: {segmented['replay_bound_bytes']} B)"
        )
    if segmented["segments_read"] != segmented["chain_segments"]:
        failed.append(
            f"reopen opened {segmented['segments_read']} segment "
            f"file(s); the anchor chain is "
            f"{segmented['chain_segments']} (gate: exactly that)"
        )
    if amplification > MAX_WRITE_AMPLIFICATION:
        failed.append(
            f"segmented WAL holds {amplification:.2f} bytes per event "
            f"byte (gate: {MAX_WRITE_AMPLIFICATION:.0f})"
        )
    if not (segmented["anchored_equals_genesis"]
            and segmented["anchored_equals_live"]):
        failed.append("anchored recovery diverged from the genesis fold")
    if failed:
        for line in failed:
            print(f"[bench] GATE FAILED: {line}", file=sys.stderr)
        return 1
    print("[bench] all serve gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
