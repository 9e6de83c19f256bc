"""repro.serve: the crash-recoverable multi-tenant control plane.

The acceptance surface the ISSUE names, as tier-1 tests:

* WAL round trip is byte-stable (golden file checked in), versions are
  enforced, sequence gaps and torn tails are handled;
* replay is recovery — a server restarted from any WAL prefix is
  bitwise-equal to a pure fold of that prefix, and replaying a log
  twice equals replaying it once;
* the crash drill: SIGKILL (WAL cut, optionally torn mid-line) at >= 5
  offsets loses zero acknowledged submissions and finishes with the
  same final state and goodput as the uninterrupted baseline;
* bounded retries with deterministic backoff ride through
  checkpoint-storage outages and re-raise the *original* error on
  budget exhaustion;
* admission control (quota, pending caps, gang size), graceful
  degradation on cluster shrink, and the NDJSON protocol's fault
  envelope;
* the fleet's own WAL: a real FleetSimulator run's scheduler logs its
  transitions, and folding that log matches the scheduler after every
  round.
"""

import io
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.cluster.storage import GlobalStore
from repro.errors import ConfigurationError, StorageError
from repro.jobs import JobSpec
from repro.serve import (
    WAL_VERSION,
    BackoffPolicy,
    ServeConfig,
    ServeEvent,
    ServeServer,
    ServeState,
    TenantSpec,
    WriteAheadLog,
    backoff_delays,
    control_plane_drill,
    demo_config,
    demo_traffic,
    handle_request,
    retry_call,
    run_script,
    serve_stdio,
    serve_tcp,
    synthetic_traffic,
)
from repro.sim import FleetSimulator

GOLDEN_WAL = Path(__file__).parent / "traces" / "serve_wal_golden.jsonl"

SMALL = ServeConfig(num_machines=4, devices_per_machine=2, num_spares=1,
                    repair_ticks=2, snapshot_interval=10)


def dp(name, workers, iters, **kw):
    return JobSpec(name=name, parallelism="dp", num_workers=workers,
                   iterations=iters, batch_size=16, **kw)


def fresh_server(tmp_path, config=SMALL, name="wal.jsonl", **kw):
    return ServeServer(tmp_path / name, config, fsync=False, **kw)


# -- the write-ahead log ----------------------------------------------------

class TestWal:
    def test_round_trip_byte_stable(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append(ServeEvent(seq=0, kind="init", payload={"a": 1}))
            wal.append(ServeEvent(seq=1, kind="round",
                                  payload={"round": 0, "dt": 0.1}))
        first = path.read_bytes()
        events = WriteAheadLog.load_events(path)
        relines = [json.loads(first.decode().splitlines()[0])] + [
            json.loads(e.to_json()) for e in events
        ]
        redone = "\n".join(
            json.dumps(d, sort_keys=True, separators=(",", ":"))
            for d in relines
        ) + "\n"
        assert redone.encode() == first

    def test_append_enforces_gapless_seq(self, tmp_path):
        with WriteAheadLog(tmp_path / "w.jsonl", fsync=False) as wal:
            wal.append(ServeEvent(seq=0, kind="init"))
            with pytest.raises(ConfigurationError, match="out of order"):
                wal.append(ServeEvent(seq=2, kind="round"))

    def test_rejects_newer_version(self, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_text(
            json.dumps({"version": WAL_VERSION + 1, "meta": {}}) + "\n"
        )
        with pytest.raises(ConfigurationError, match="newer than"):
            WriteAheadLog.load_events(path)

    def test_rejects_seq_gap_on_load(self, tmp_path):
        path = tmp_path / "w.jsonl"
        lines = [
            json.dumps({"version": WAL_VERSION, "meta": {}}),
            ServeEvent(seq=0, kind="init").to_json(),
            ServeEvent(seq=2, kind="round",
                       payload={"round": 0, "dt": 0.1}).to_json(),
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match="sequence gap"):
            WriteAheadLog.load_events(path)

    def test_torn_tail_recovered_and_truncated(self, tmp_path):
        path = tmp_path / "w.jsonl"
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append(ServeEvent(seq=0, kind="init"))
        whole = path.read_text()
        torn_line = ServeEvent(seq=1, kind="round",
                               payload={"round": 0}).to_json()
        path.write_text(whole + torn_line[: len(torn_line) // 2])
        with pytest.warns(UserWarning, match="torn final WAL line"):
            wal = WriteAheadLog(path, fsync=False)
        assert [e.seq for e in wal.events] == [0]
        assert wal.torn_tail_dropped is not None
        # appends after recovery must not concatenate onto torn bytes
        wal.append(ServeEvent(seq=1, kind="round",
                              payload={"round": 0, "dt": 0.1}))
        wal.close()
        assert [e.seq for e in WriteAheadLog.load_events(path)] == [0, 1]

    def test_unknown_event_kind_refused(self):
        with pytest.raises(ConfigurationError, match="unknown serve"):
            ServeEvent(seq=0, kind="nope")


class TestGoldenWal:
    def test_golden_reserializes_byte_identically(self):
        raw = GOLDEN_WAL.read_text()
        lines = raw.splitlines()
        events = WriteAheadLog.load_events(GOLDEN_WAL)
        assert [e.to_json() for e in events] == lines[1:]

    def test_demo_run_reproduces_golden_bytes(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with ServeServer(path, demo_config(), fsync=False) as server:
            run_script(server, demo_traffic())
        assert path.read_bytes() == GOLDEN_WAL.read_bytes()

    def test_golden_replay_accounting(self):
        state = ServeState.replay(WriteAheadLog.load_events(GOLDEN_WAL))
        assert state.all_done()
        statuses = {j["status"] for j in state.jobs.values()}
        assert statuses == {"completed"}
        assert len(state.jobs) == 8
        assert state.goodput() > 0


# -- retries and backoff ----------------------------------------------------

class TestRetry:
    def test_no_jitter_schedule_is_pure_exponential(self):
        policy = BackoffPolicy(retries=4, base_delay=0.5, factor=2.0,
                               max_delay=3.0, jitter=0.0)
        assert backoff_delays(policy) == [0.5, 1.0, 2.0, 3.0]

    def test_seeded_jitter_is_deterministic(self):
        a = backoff_delays(BackoffPolicy(retries=5, seed=7))
        b = backoff_delays(BackoffPolicy(retries=5, seed=7))
        c = backoff_delays(BackoffPolicy(retries=5, seed=8))
        assert a == b
        assert a != c

    def test_golden_backoff_sequence(self):
        # pinned: derive_seed(0, "serve", "backoff") jitter stream
        delays = backoff_delays(BackoffPolicy(retries=4, seed=0))
        assert [round(d, 6) for d in delays] == [
            0.059259, 0.111493, 0.18277, 0.425191,
        ]

    def test_budget_exhaustion_reraises_original_error(self):
        boom = StorageError("store down")

        def always_fails():
            raise boom

        with pytest.raises(StorageError) as excinfo:
            retry_call(always_fails, BackoffPolicy(retries=2),
                       retry_on=(StorageError,))
        assert excinfo.value is boom

    def test_non_retryable_error_propagates_immediately(self):
        calls = []

        def fails():
            calls.append(1)
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            retry_call(fails, BackoffPolicy(retries=5),
                       retry_on=(StorageError,))
        assert len(calls) == 1

    def test_succeeds_mid_budget_and_observes_retries(self):
        calls, seen = [], []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise StorageError("transient")
            return "done"

        result = retry_call(
            flaky, BackoffPolicy(retries=5, jitter=0.0),
            retry_on=(StorageError,),
            on_retry=lambda i, d, e: seen.append((i, d)),
        )
        assert result == "done"
        assert len(calls) == 3
        assert [i for i, _ in seen] == [0, 1]


# -- event-sourced state ----------------------------------------------------

class TestServeState:
    def test_replay_twice_equals_once(self):
        events = WriteAheadLog.load_events(GOLDEN_WAL)
        once = ServeState.replay(events)
        twice = ServeState.replay(events)
        for e in events:
            assert twice.apply(e) is False  # idempotent no-ops
        assert twice.snapshot() == once.snapshot()

    def test_sequence_gap_refused(self):
        state = ServeState()
        state.apply(ServeEvent(seq=0, kind="init", payload={
            "num_machines": 2, "devices_per_machine": 1, "spares": [],
            "repair_ticks": 1, "iteration_time": 1.0, "idle_time": 0.1}))
        with pytest.raises(ConfigurationError, match="sequence gap"):
            state.apply(ServeEvent(seq=5, kind="round",
                                   payload={"round": 0, "dt": 0.1}))

    def test_snapshot_equality_is_state_equality(self, tmp_path):
        with fresh_server(tmp_path) as server:
            server.register_tenant(TenantSpec(name="t"))
            server.submit("t", dp("j", 2, 3))
            server.run()
            snap = server.state.snapshot()
        replayed = ServeState.replay(
            WriteAheadLog.load_events(tmp_path / "wal.jsonl")
        )
        assert replayed.snapshot() == snap


# -- admission control ------------------------------------------------------

class TestAdmission:
    def test_quota_rejection_is_acknowledged(self, tmp_path):
        with fresh_server(tmp_path) as server:
            server.register_tenant(TenantSpec(name="t", quota=4))
            assert server.submit("t", dp("ok", 4, 2)) == ("accepted", "ok")
            verdict, name = server.submit("t", dp("over", 2, 2))
            assert verdict == "rejected"
            assert "quota" in server.state.jobs["over"]["reason"]
            # both verdicts are durable: a replayed state still has them
            replayed = ServeState.replay(server.wal.events)
            assert set(replayed.acked_jobs()) == {"ok", "over"}

    def test_pending_cap(self, tmp_path):
        with fresh_server(tmp_path) as server:
            server.register_tenant(TenantSpec(name="t", max_pending=1))
            server.submit("t", dp("a", 8, 2))   # fills the cluster + queue
            server.submit("t", dp("b", 8, 2))
            verdict, _ = server.submit("t", dp("c", 1, 1))
            assert verdict == "rejected"
            assert "pending cap" in server.state.jobs["c"]["reason"]

    def test_gang_larger_than_cluster(self, tmp_path):
        with fresh_server(tmp_path) as server:
            server.register_tenant(TenantSpec(name="t"))
            verdict, _ = server.submit("t", dp("big", 9, 2))
            assert verdict == "rejected"
            assert "capacity" in server.state.jobs["big"]["reason"]

    def test_unknown_tenant_and_duplicate_name_raise(self, tmp_path):
        with fresh_server(tmp_path) as server:
            with pytest.raises(ConfigurationError, match="unknown tenant"):
                server.submit("ghost", dp("j", 1, 1))
            server.register_tenant(TenantSpec(name="t"))
            server.submit("t", dp("j", 1, 1))
            with pytest.raises(ConfigurationError, match="duplicate"):
                server.submit("t", dp("j", 1, 1))


# -- graceful degradation ---------------------------------------------------

class TestShrinkAndShed:
    def test_shrink_sheds_lowest_priority_first(self, tmp_path):
        with fresh_server(tmp_path) as server:
            server.register_tenant(TenantSpec(name="hi", priority=2))
            server.register_tenant(TenantSpec(name="lo", priority=0))
            # 3 schedulable machines x 2 devices = 6 slots
            server.submit("hi", dp("wide-hi", 6, 3))
            server.submit("lo", dp("wide-lo", 6, 3))
            server.tick()          # wide-hi runs, wide-lo queues
            server.run()           # both finish sequentially
            assert server.state.jobs["wide-lo"]["status"] == "completed"

            server.submit("hi", dp("wide-hi-2", 6, 2))
            server.submit("lo", dp("wide-lo-2", 6, 2))
            retired = server.shrink_cluster([2])  # capacity drops to 4
            assert retired == [2]
            server.run()
            # both 6-wide jobs can never fit again; lower priority first
            shed = [j["name"] for j in
                    server.state.jobs_with_status("shed")]
            assert set(shed) == {"wide-hi-2", "wide-lo-2"}
            events = [e for e in server.wal.events if e.kind == "shed"]
            assert events[0].payload["name"] == "wide-lo-2"

    def test_shrink_skips_occupied_machines(self, tmp_path):
        with fresh_server(tmp_path) as server:
            server.register_tenant(TenantSpec(name="t"))
            server.submit("t", dp("j", 6, 6))
            server.tick()
            assert server.state.jobs["j"]["status"] == "running"
            assert server.shrink_cluster([0, 1, 2]) == []
            server.run()
            assert server.state.jobs["j"]["status"] == "completed"

    def test_crash_lease_recover_reclaim_cycle(self, tmp_path):
        with fresh_server(tmp_path) as server:
            server.register_tenant(TenantSpec(name="t"))
            server.submit("t", dp("j", 2, 8))
            server.tick()
            victim = server.state.jobs["j"]["slots"][0][0]
            assert server.inject_failure(victim, tag="t-0") is True
            server.run()
            job = server.state.jobs["j"]
            assert job["status"] == "completed"
            assert job["failures"] == 1
            assert job["recoveries"] == 1
            kinds = [e.kind for e in server.wal.events]
            for kind in ("crash", "lease", "recover", "reclaim"):
                assert kind in kinds


# -- the crash drill (the tentpole acceptance test) -------------------------

class TestControlPlaneDrill:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        return control_plane_drill(
            kill_points=5,
            workdir=tmp_path_factory.mktemp("drill"),
        )

    def test_drill_passes(self, report):
        assert report.passed
        assert len(report.results) == 5

    def test_zero_acknowledged_jobs_lost(self, report):
        assert report.acked_jobs_lost == 0

    @pytest.mark.parametrize("index", range(5))
    def test_each_kill_point(self, report, index):
        r = report.results[index]
        assert r.replay_bitwise_equal, f"replay diverged at {r}"
        assert r.final_state_equal, f"final state diverged at {r}"
        assert r.acked_jobs_lost == 0
        # goodput of every resumed run equals the uninterrupted baseline
        assert r.goodput == report.baseline_goodput

    def test_alternating_points_exercise_torn_writes(self, report):
        assert [r.cut for r in report.results] == [
            "kept", "torn", "unterminated", "kept", "torn",
        ]

    def test_every_kill_point_survives_a_second_restart(self, report):
        assert all(r.reopen_equal for r in report.results)

    def test_a_drill_without_workdir_leaves_no_directory(
            self, tmp_path, monkeypatch):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert control_plane_drill(kill_points=1).passed
        assert list(tmp_path.iterdir()) == []

    def test_drill_under_shrink_traffic(self, tmp_path):
        script = synthetic_traffic(
            "priority-mixed", num_jobs=8, num_machines=6,
            devices_per_machine=2, failures=1, seed=4,
        )
        config = ServeConfig(num_machines=6, devices_per_machine=2,
                             num_spares=1, repair_ticks=2,
                             snapshot_interval=10)
        report = control_plane_drill(config, script, kill_points=4,
                                     workdir=tmp_path)
        assert report.passed

    def test_mid_tick_wal_forces_tick_completion(self, tmp_path):
        baseline = tmp_path / "base.jsonl"
        with ServeServer(baseline, SMALL, fsync=False) as server:
            server.register_tenant(TenantSpec(name="t"))
            server.submit("t", dp("j", 2, 2))
            server.run()
            events = list(server.wal.events)
        # cut right after the first tick-phase event (the 'place')
        place_at = next(i for i, e in enumerate(events)
                        if e.kind == "place")
        cut = tmp_path / "cut.jsonl"
        header = baseline.read_text().splitlines()[0]
        cut.write_text("\n".join(
            [header] + [e.to_json() for e in events[: place_at + 1]]
        ) + "\n")
        with ServeServer(cut, SMALL, fsync=False) as revived:
            assert revived.mid_tick
            revived.run()
            assert not revived.mid_tick
            final = revived.state.snapshot()
        with ServeServer(baseline, SMALL, fsync=False) as done:
            assert final == done.state.snapshot()


# -- storage outages --------------------------------------------------------

class TestStorageFaultEnvelope:
    def test_snapshots_survive_transient_outage(self, tmp_path):
        store = GlobalStore()
        config = ServeConfig(num_machines=4, devices_per_machine=2,
                             num_spares=1, snapshot_interval=5,
                             storage_policy=BackoffPolicy(retries=2))
        with fresh_server(tmp_path, config, storage=store) as server:
            server.register_tenant(TenantSpec(name="t"))
            server.submit("t", dp("j", 2, 12))
            server.run()
            assert server.snapshot_failures == 0
            assert any(k.startswith("serve/snapshot/")
                       for k in store.keys())

    def test_exhausted_retries_degrade_not_crash(self, tmp_path):
        store = GlobalStore()
        store.add_outage(0.0, 1e9)  # the store never comes back
        config = ServeConfig(num_machines=4, devices_per_machine=2,
                             num_spares=1, snapshot_interval=5,
                             storage_policy=BackoffPolicy(retries=1))
        with fresh_server(tmp_path, config, storage=store) as server:
            server.register_tenant(TenantSpec(name="t"))
            server.submit("t", dp("j", 2, 12))
            server.run()  # must complete despite every upload failing
            assert server.state.jobs["j"]["status"] == "completed"
            assert server.snapshot_failures > 0


# -- the NDJSON protocol ----------------------------------------------------

class TestProtocol:
    def test_request_cycle(self, tmp_path):
        with fresh_server(tmp_path) as server:
            assert handle_request(server, {"op": "hello"})["ok"]
            assert handle_request(server, {
                "op": "register_tenant", "tenant": {"name": "t"},
            })["ok"]
            resp = handle_request(server, {
                "op": "submit", "tenant": "t",
                "spec": dp("j", 2, 3).to_payload(),
            })
            assert (resp["verdict"], resp["job"]) == ("accepted", "j")
            assert handle_request(server, {"op": "run"})["ok"]
            status = handle_request(server, {"op": "status"})["status"]
            assert status["jobs"] == {"completed": 1}

    def test_errors_never_raise(self, tmp_path):
        with fresh_server(tmp_path) as server:
            assert not handle_request(server, {"op": "nope"})["ok"]
            assert not handle_request(server, {"op": "job",
                                               "name": "ghost"})["ok"]
            bad = handle_request(server, {"op": "submit"})  # missing keys
            assert not bad["ok"] and "error" in bad

    def test_stdio_fault_envelope(self, tmp_path):
        requests = "\n".join([
            '{"op": "hello"}',
            "this is not json",
            '["not", "an", "object"]',
            "x" * (1 << 21),            # oversized line
            '{"op": "shutdown"}',
            '{"op": "hello"}',          # after shutdown: never served
        ]) + "\n"
        out = io.StringIO()
        with fresh_server(tmp_path) as server:
            served = serve_stdio(server, rfile=io.StringIO(requests),
                                 wfile=out)
        assert served == 5
        lines = [json.loads(ln) for ln in out.getvalue().splitlines()]
        assert [r["ok"] for r in lines] == [
            True, False, False, False, True,
        ]
        assert "bad JSON" in lines[1]["error"]
        assert "JSON object" in lines[2]["error"]
        assert "exceeds" in lines[3]["error"]

    def test_tcp_round_trip(self, tmp_path):
        ready = threading.Event()
        bound = {}

        def on_ready(port):
            bound["port"] = port
            ready.set()

        def client():
            ready.wait(timeout=10)
            with socket.create_connection(
                    ("127.0.0.1", bound["port"]), timeout=10) as conn:
                f = conn.makefile("rw")
                for req in ({"op": "hello"}, {"op": "shutdown"}):
                    f.write(json.dumps(req) + "\n")
                    f.flush()
                    bound.setdefault("replies", []).append(
                        json.loads(f.readline())
                    )

        t = threading.Thread(target=client)
        t.start()
        with fresh_server(tmp_path) as server:
            serve_tcp(server, port=0, ready_callback=on_ready,
                      request_timeout=10)
        t.join(timeout=10)
        assert [r["ok"] for r in bound["replies"]] == [True, True]
        assert bound["replies"][1]["bye"] is True


# -- the fleet's own WAL ----------------------------------------------------

class TestFleetWal:
    """The fleet scheduler logs its own transitions; folding that log must
    land on the scheduler's state after every round, not just at the end.
    """

    @pytest.fixture()
    def fleet_run(self, tmp_path):
        from repro.api import demo_fleet_specs
        from repro.obs import TraceRecorder

        specs, failures = demo_fleet_specs(20)
        path = tmp_path / "fleet-wal.jsonl"
        wal = WriteAheadLog(path, fsync=False)
        recorder = TraceRecorder()
        sim = FleetSimulator(specs, num_machines=6,
                             devices_per_machine=4, num_spares=1,
                             failures=failures, wal=wal, recorder=recorder)
        state, audits = ServeState(), []

        def audit(event):
            # the round span is recorded after the round's events are
            # written, so the fold and the scheduler describe one moment
            if event.name != "fleet/round":
                return
            for e in wal.events:
                state.apply(e)  # already-folded seqs are no-ops
            audits.append(self._mismatches(state, sim))

        recorder.subscribe(audit)
        report = sim.run()
        wal.close()
        return sim, report, state, audits, WriteAheadLog.load_events(path)

    @staticmethod
    def _mismatches(state, sim):
        """Where the fold disagrees with the live scheduler and spares.

        The spare repair countdown is left out on purpose: the fold
        decrements it on each ``round`` event, the pool on its next
        ``tick()``, so the two read one round apart by design.
        """
        out = []
        if (state.round, state.fleet_time) != (sim.rounds, sim.fleet_time):
            out.append(("clock", state.round, sim.rounds))
        if set(state.jobs) != set(sim.scheduler.jobs):
            out.append(("jobs", sorted(state.jobs)))
        for name, job in sim.scheduler.jobs.items():
            folded = state.jobs.get(name)
            if folded is None:
                continue
            status = {"pending": "queued"}.get(job.state.value,
                                               job.state.value)
            if folded["status"] != status:
                out.append((name, "status", folded["status"], status))
            if status in ("running", "blocked") and sorted(
                    tuple(slot) for slot in folded["slots"]
            ) != sim.cluster.owned_slots(job.owner_tag):
                out.append((name, "slots", folded["slots"]))
            if folded["iterations_done"] != job.iteration:
                out.append((name, "iterations", folded["iterations_done"]))
        if (len(state.spares), len(state.repairing)) != (
                sim.spares.available, sim.spares.repairing):
            out.append(("spares", state.spares, state.repairing))
        return out

    def test_every_round_folds_to_the_scheduler(self, fleet_run):
        sim, report, state, audits, events = fleet_run
        # the run exercises preemption and failure routing
        assert report.total_preemptions == 2
        assert report.total_failures == 6
        assert len(audits) == report.rounds
        assert [a for a in audits if a] == []
        for name, job in sim.scheduler.jobs.items():
            assert state.jobs[name]["recoveries"] == len(job.recoveries)
            assert state.jobs[name]["preemptions"] == job.preemptions
        # decisions are logged as taken: each preemption names the gang
        # it frees slots for, and that gang is the next one placed
        preempts = [i for i, e in enumerate(events) if e.kind == "preempt"]
        assert len(preempts) == 2
        for i in preempts:
            placed = next(e for e in events[i:] if e.kind == "place")
            assert placed.payload["name"] == events[i].payload["for"]

    def test_replay_reproduces_fleet_accounting(self, fleet_run):
        _, report, _, _, events = fleet_run
        state = ServeState.replay(events)
        assert state.round == report.rounds
        assert state.fleet_time == report.makespan  # exact float
        by_name = {j.name: j for j in report.jobs}
        assert set(state.jobs) == set(by_name)
        for name, job in state.jobs.items():
            assert job["iterations_done"] == by_name[name].iterations
            assert job["status"] == by_name[name].state
            assert job["failures"] == by_name[name].machine_failures
        leases = sum(1 for e in events if e.kind == "lease")
        assert leases == report.spare_leases

    def test_fleet_wal_replay_idempotent(self, fleet_run):
        *_, events = fleet_run
        state = ServeState.replay(events)
        for e in events:
            assert state.apply(e) is False
        assert state.snapshot() == ServeState.replay(events).snapshot()


# -- the serve CLI ----------------------------------------------------------

class TestServeCLI:
    def test_demo_runs_and_resumes(self, tmp_path, capsys):
        wal = str(tmp_path / "demo.jsonl")
        assert cli_main(["serve", "--demo", "--wal", wal,
                         "--no-fsync"]) == 0
        out = capsys.readouterr().out
        assert "goodput" in out
        # a second invocation resumes the finished WAL, changes nothing
        assert cli_main(["serve", "--demo", "--wal", wal,
                         "--no-fsync"]) == 0
        out = capsys.readouterr().out
        assert "recovered from" in out
        assert "not verified" not in out  # one file: nothing left unread

    def test_segmented_resume_names_unverified_segments(self, tmp_path,
                                                       capsys):
        argv = ["serve", "--demo", "--wal", str(tmp_path / "demo-wal"),
                "--no-fsync", "--segment-bytes", "1024"]
        assert cli_main(argv) == 0
        capsys.readouterr()
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "recovered from" in out
        assert "segment(s) behind the anchor not verified; " \
            "`repro serve --replay` audits them" in out

    def test_drill_exits_zero_on_pass(self, capsys):
        assert cli_main(["serve", "--drill", "--kill-points", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_replay_summary(self, capsys):
        assert cli_main(["serve", "--replay", str(GOLDEN_WAL)]) == 0
        out = capsys.readouterr().out
        assert "replayed 70 events" in out

    def test_replay_corrupt_wal_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"no": "header"}\n')
        assert cli_main(["serve", "--replay", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "cannot replay WAL" in err
        assert "Traceback" not in err

    def test_replay_missing_wal_exits_one(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.jsonl")
        assert cli_main(["serve", "--replay", missing]) == 1
        assert "cannot replay WAL" in capsys.readouterr().err

    def test_conflicting_modes_exit_two(self, capsys):
        assert cli_main(["serve", "--demo", "--drill"]) == 2
        assert "pick one" in capsys.readouterr().err

    def test_listen_without_wal_exits_two(self, capsys):
        assert cli_main(["serve", "--stdio"]) == 2
        assert "--wal" in capsys.readouterr().err

    def test_fleet_demo_audit(self, tmp_path, capsys):
        wal = str(tmp_path / "fleet.jsonl")
        assert cli_main(["serve", "--fleet-demo", "--wal", wal,
                         "--iterations", "12", "--no-fsync"]) == 0
        out = capsys.readouterr().out
        assert "replay audit" in out
        assert "exactly" in out

    def test_segmented_demo_and_replay(self, tmp_path, capsys):
        wal = str(tmp_path / "wal")
        assert cli_main(["serve", "--demo", "--wal", wal,
                         "--segment-bytes", "4096", "--no-fsync"]) == 0
        capsys.readouterr()
        assert cli_main(["serve", "--replay", wal]) == 0
        out = capsys.readouterr().out
        assert "snapshot anchor at seq" in out
        assert "segments)" in out

    def test_busy_tcp_port_exits_one_with_one_line(self, tmp_path,
                                                   capsys):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            code = cli_main(["serve", "--tcp", str(port), "--wal",
                             str(tmp_path / "wal.jsonl"), "--no-fsync"])
        finally:
            blocker.close()
        assert code == 1
        err = capsys.readouterr().err
        assert "cannot listen" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1


# -- idempotent submissions (exactly-once acked effects) --------------------

class TestIdempotentSubmit:
    def test_duplicate_request_id_replays_verdict(self, tmp_path):
        with fresh_server(tmp_path) as server:
            server.register_tenant(TenantSpec(name="t"))
            first = server.submit("t", dp("j", 2, 2), request_id="r/0")
            dup = server.submit("t", dp("other-name", 4, 9),
                                request_id="r/0")
            assert first == dup == ("accepted", "j")
            kinds = [e.kind for e in server.wal.events]
            assert kinds.count("submit") == 1  # dedup logged nothing

    def test_rejection_verdicts_dedup_too(self, tmp_path):
        with fresh_server(tmp_path) as server:
            server.register_tenant(TenantSpec(name="t", quota=2))
            server.submit("t", dp("ok", 2, 2), request_id="r/0")
            first = server.submit("t", dp("over", 2, 2),
                                  request_id="r/1")
            assert first == ("rejected", "over")
            assert server.submit("t", dp("over2", 2, 2),
                                 request_id="r/1") == first
            kinds = [e.kind for e in server.wal.events]
            assert kinds.count("reject") == 1

    def test_unstamped_submissions_keep_v1_behavior(self, tmp_path):
        with fresh_server(tmp_path) as server:
            server.register_tenant(TenantSpec(name="t"))
            server.submit("t", dp("a", 2, 2))
            with pytest.raises(ConfigurationError, match="duplicate"):
                server.submit("t", dp("a", 2, 2))
            assert server.state.dedup == {}

    def test_register_tenant_is_idempotent(self, tmp_path):
        with fresh_server(tmp_path) as server:
            server.register_tenant(TenantSpec(name="t", quota=4))
            # identical re-registration (a retried frame): logs nothing
            server.register_tenant(TenantSpec(name="t", quota=4))
            tenants = [e for e in server.wal.events
                       if e.kind == "tenant"]
            assert len(tenants) == 1
            # a *changed* spec is an update, not a duplicate: it logs
            server.register_tenant(TenantSpec(name="t", quota=8))
            tenants = [e for e in server.wal.events
                       if e.kind == "tenant"]
            assert len(tenants) == 2
            assert server.state.tenants["t"]["quota"] == 8

    def test_inject_failure_is_idempotent_by_tag(self, tmp_path):
        with fresh_server(tmp_path) as server:
            server.register_tenant(TenantSpec(name="t"))
            server.submit("t", dp("j", 2, 8))
            server.tick()
            victim = server.state.jobs["j"]["slots"][0][0]
            assert server.inject_failure(victim, tag="boom") is True
            assert server.inject_failure(victim, tag="boom") is False
            crashes = [e for e in server.wal.events
                       if e.kind == "crash"]
            assert len(crashes) == 1

    def test_dedup_table_is_part_of_the_snapshot(self, tmp_path):
        with fresh_server(tmp_path) as server:
            server.register_tenant(TenantSpec(name="t"))
            server.submit("t", dp("j", 2, 2), request_id="r/0")
            snap = json.loads(server.state.snapshot())
            assert snap["dedup"] == {
                "r/0": {"name": "j", "verdict": "submit"},
            }


# -- retry telemetry --------------------------------------------------------

class TestRetryTelemetry:
    def test_storage_outage_retries_are_counted(self, tmp_path):
        from repro.obs import TraceRecorder

        store = GlobalStore()
        # covers the first snapshot upload (round 5, fleet time 5.0)
        # but not the second — degradation is visible, then it heals
        store.add_outage(4.5, 5.5)
        recorder = TraceRecorder()
        config = ServeConfig(num_machines=4, devices_per_machine=2,
                             num_spares=1, snapshot_interval=5,
                             storage_policy=BackoffPolicy(
                                 retries=3, base_delay=1.0, jitter=0.0))
        with fresh_server(tmp_path, config, storage=store,
                          recorder=recorder) as server:
            server.register_tenant(TenantSpec(name="t"))
            server.submit("t", dp("j", 2, 12))
            server.run()
            assert server.snapshot_failures == 1
            assert any(k.startswith("serve/snapshot/")
                       for k in store.keys())
        assert recorder.counters["serve/storage_retries"] == 3.0

    def test_exhausted_retries_emit_instant(self, tmp_path):
        from repro.obs import TraceRecorder

        store = GlobalStore()
        store.add_outage(0.0, 1e9)
        recorder = TraceRecorder()
        config = ServeConfig(num_machines=4, devices_per_machine=2,
                             num_spares=1, snapshot_interval=5,
                             storage_policy=BackoffPolicy(retries=1))
        with fresh_server(tmp_path, config, storage=store,
                          recorder=recorder) as server:
            server.register_tenant(TenantSpec(name="t"))
            server.submit("t", dp("j", 2, 12))
            server.run()
        trace = recorder.trace("unit")
        assert any(e.name == "serve/storage_exhausted"
                   for e in trace.instants)


# -- graceful shutdown (SIGTERM drains, exits 0) ----------------------------

REPO_SRC = str(Path(__file__).parent.parent / "src")


def spawn_serve(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", *argv],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env=env,
    )


class TestGracefulShutdown:
    def test_sigterm_drains_stdio_and_exits_zero(self, tmp_path):
        wal = tmp_path / "wal.jsonl"
        proc = spawn_serve("--stdio", "--wal", str(wal), "--no-fsync")
        try:
            proc.stdin.write('{"op": "hello"}\n')
            proc.stdin.flush()
            assert json.loads(proc.stdout.readline())["ok"] is True
            time.sleep(0.2)
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
        assert proc.returncode == 0, err
        last = json.loads(out.strip().splitlines()[-1])
        assert last == {"ok": False, "error": "shutting_down",
                        "shutting_down": True}
        # the WAL survived the drain intact and loadable
        assert WriteAheadLog.load_events(wal) is not None

    def test_sigterm_answers_inflight_tcp_client(self, tmp_path):
        wal = tmp_path / "wal.jsonl"
        proc = spawn_serve("--tcp", "0", "--wal", str(wal),
                           "--no-fsync")
        try:
            ready = proc.stdout.readline()
            assert "listening on" in ready
            port = int(ready.split("127.0.0.1:")[1].split(" ")[0])
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=10) as conn:
                f = conn.makefile("rw")
                f.write('{"op": "hello"}\n')
                f.flush()
                assert json.loads(f.readline())["ok"] is True
                time.sleep(0.2)
                proc.send_signal(signal.SIGTERM)
                drain = json.loads(f.readline())
                assert drain["shutting_down"] is True
            proc.wait(timeout=30)
        finally:
            proc.kill()
        assert proc.returncode == 0
        assert WriteAheadLog.load_events(wal) is not None
