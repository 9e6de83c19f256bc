"""ServeClient: exactly-once sessions over unreliable transports.

* request ids are client-stamped and reused verbatim across retries, so
  a resubmission after a lost ack returns the original verdict instead
  of double-admitting — and the dedup table survives replay;
* the tick round guard makes duplicated/retried tick frames advance
  time exactly once;
* transport failures retry through BackoffPolicy, surface as
  ``serve/client_retries`` counters, and give up with the original
  error once the budget is spent.
"""

import threading

import pytest

from repro.errors import ConfigurationError
from repro.jobs import JobSpec
from repro.obs import TraceRecorder
from repro.serve import (
    BackoffPolicy,
    LoopbackTransport,
    ServeClient,
    ServeConfig,
    ServeServer,
    ServeState,
    TcpTransport,
    TenantSpec,
    TransportError,
    WriteAheadLog,
    serve_tcp,
)

SMALL = ServeConfig(num_machines=4, devices_per_machine=2, num_spares=1,
                    repair_ticks=2, snapshot_interval=10)

FAST = BackoffPolicy(retries=6, base_delay=0.0001, max_delay=0.001,
                     seed=0)


def dp(name, workers, iters):
    return JobSpec(name=name, parallelism="dp", num_workers=workers,
                   iterations=iters, batch_size=16)


class LossyTransport:
    """Loopback that DELIVERS every frame but loses chosen acks."""

    def __init__(self, server, lose_acks=()):
        self.inner = LoopbackTransport(server)
        self.lose_acks = set(lose_acks)
        self.sent = 0

    def send(self, line):
        self.sent += 1
        response = self.inner.send(line)
        if self.sent in self.lose_acks:
            raise TransportError(f"ack {self.sent} lost after delivery")
        return response

    def close(self):
        pass


class TestExactlyOnceSubmit:
    def test_lost_ack_retry_returns_original_verdict(self, tmp_path):
        with ServeServer(tmp_path / "wal.jsonl", SMALL,
                         fsync=False) as server:
            client = ServeClient(LossyTransport(server, lose_acks={2}),
                                 client_id="c", policy=FAST)
            client.register_tenant(TenantSpec(name="t"))
            # frame 2 is the submit: the server admits it and logs the
            # event, then the ack vanishes; the client's retry resends
            # the identical request id
            assert client.submit("t", dp("j", 2, 2)) == ("accepted", "j")
            submits = [e for e in server.wal.events
                       if e.kind == "submit"]
            assert len(submits) == 1  # exactly one admission
            assert submits[0].payload["request_id"] == "c/0"

    def test_duplicate_rejection_replays_original_verdict(self, tmp_path):
        with ServeServer(tmp_path / "wal.jsonl", SMALL,
                         fsync=False) as server:
            client = ServeClient(LossyTransport(server, lose_acks={3}),
                                 client_id="c", policy=FAST)
            client.register_tenant(TenantSpec(name="t", quota=2))
            client.submit("t", dp("ok", 2, 2))
            verdict, name = client.submit("t", dp("over", 2, 2))
            assert (verdict, name) == ("rejected", "over")
            rejects = [e for e in server.wal.events
                       if e.kind == "reject"]
            assert len(rejects) == 1

    def test_dedup_survives_crash_and_replay(self, tmp_path):
        wal = tmp_path / "wal.jsonl"
        with ServeServer(wal, SMALL, fsync=False) as server:
            client = ServeClient(LoopbackTransport(server),
                                 client_id="c", policy=FAST)
            client.register_tenant(TenantSpec(name="t"))
            client.submit("t", dp("j", 2, 2))
            snap = server.state.snapshot()
        # kill -9 equivalent: cold restart folds the WAL, including the
        # dedup table (it is part of the snapshot, bitwise)
        with ServeServer(wal, fsync=False) as revived:
            assert revived.state.snapshot() == snap
            assert "c/0" in revived.state.dedup
            verdict, name = revived.submit("t", dp("renamed", 2, 2),
                                           request_id="c/0")
            assert (verdict, name) == ("accepted", "j")  # original ack
            assert revived.state.snapshot() == snap  # no new event

    def test_same_request_id_racing_two_connections(self, tmp_path):
        """Two TCP connections race the same request id: one admission."""
        ready = threading.Event()
        bound = {}
        results = []

        def on_ready(port):
            bound["port"] = port
            ready.set()

        def rider(client_id):
            ready.wait(timeout=10)
            transport = TcpTransport("127.0.0.1", bound["port"],
                                     timeout=10)
            client = ServeClient(transport, client_id="shared",
                                 policy=FAST)
            try:
                results.append(client.submit("t", dp("j", 2, 2)))
            finally:
                client.close()

        def closer():
            ready.wait(timeout=10)
            for res in iter(lambda: len(results), 2):
                pass  # both riders answered; now stop the server
            transport = TcpTransport("127.0.0.1", bound["port"],
                                     timeout=10)
            ServeClient(transport, policy=FAST).shutdown()

        wal = tmp_path / "wal.jsonl"
        threads = [threading.Thread(target=rider, args=(f"r{i}",))
                   for i in range(2)] + [threading.Thread(target=closer)]
        with ServeServer(wal, SMALL, fsync=False) as server:
            server.register_tenant(TenantSpec(name="t"))
            for t in threads:
                t.start()
            serve_tcp(server, port=0, ready_callback=on_ready,
                      request_timeout=10)
        for t in threads:
            t.join(timeout=10)
        # both clients stamped "shared/0"; both must hold the same ack
        assert results == [("accepted", "j"), ("accepted", "j")]
        events = WriteAheadLog.load_events(wal)
        assert sum(1 for e in events if e.kind == "submit") == 1
        # and the dedup table replays bitwise after the restart
        state = ServeState.replay(events)
        with ServeServer(wal, fsync=False) as revived:
            assert revived.state.snapshot() == state.snapshot()
            assert "shared/0" in revived.state.dedup


class TestExactlyOnceInjectFailure:
    def test_retry_after_lost_ack_injects_once(self, tmp_path):
        with ServeServer(tmp_path / "wal.jsonl", SMALL,
                         fsync=False) as server:
            # frame 1 is the inject: the server logs the crash (the
            # spare enters repair under its own id), then the ack is
            # lost; the retried frame must not fail the machine again
            client = ServeClient(LossyTransport(server, lose_acks={1}),
                                 client_id="c", policy=FAST)
            spare = server.state.pool.spares[0]
            client.inject_failure(spare)
            crashes = [e for e in server.wal.events
                       if e.kind == "crash"]
            assert len(crashes) == 1  # exactly one injection
            assert crashes[0].payload["tag"]  # auto-stamped key
            assert server.state.machines[spare]["failures"] == 1

    def test_caller_tag_is_used_verbatim(self, tmp_path):
        with ServeServer(tmp_path / "wal.jsonl", SMALL,
                         fsync=False) as server:
            client = ServeClient(LoopbackTransport(server),
                                 client_id="c", policy=FAST)
            client.inject_failure(0, tag="drill-0")
            (crash,) = [e for e in server.wal.events
                        if e.kind == "crash"]
            assert crash.payload["tag"] == "drill-0"


class TestTickGuard:
    def test_duplicated_tick_advances_once(self, tmp_path):
        with ServeServer(tmp_path / "wal.jsonl", SMALL,
                         fsync=False) as server:
            client = ServeClient(LossyTransport(server,
                                                lose_acks={4, 5}),
                                 client_id="c", policy=FAST)
            client.register_tenant(TenantSpec(name="t"))
            client.submit("t", dp("j", 2, 8))
            # frames: 3=status (round fetch), 4=tick delivered twice
            # more via retries — the round guard absorbs the replays
            assert client.tick() == 1
            assert server.state.round == 1


class TestRetryEnvelope:
    def test_retries_surface_as_counters(self, tmp_path):
        recorder = TraceRecorder()
        with ServeServer(tmp_path / "wal.jsonl", SMALL,
                         fsync=False) as server:
            client = ServeClient(LossyTransport(server, lose_acks={1}),
                                 client_id="c", policy=FAST,
                                 recorder=recorder)
            client.hello()
        assert recorder.counters["serve/client_retries"] == 1.0

    def test_exhausted_budget_raises_transport_error(self, tmp_path):
        with ServeServer(tmp_path / "wal.jsonl", SMALL,
                         fsync=False) as server:
            lossy = LossyTransport(server, lose_acks=set(range(1, 99)))
            client = ServeClient(lossy, client_id="c",
                                 policy=BackoffPolicy(
                                     retries=2, base_delay=0.0001,
                                     max_delay=0.001, seed=0))
            with pytest.raises(TransportError, match="lost"):
                client.hello()
            assert lossy.sent == 3  # first try + 2 retries

    def test_damaged_frame_errors_are_retried(self, tmp_path):
        class Garbler:
            """Truncates the first request frame in flight."""

            def __init__(self, server):
                self.inner = LoopbackTransport(server)
                self.sent = 0

            def send(self, line):
                self.sent += 1
                if self.sent == 1:
                    return self.inner.send(line[: len(line) // 2])
                return self.inner.send(line)

            def close(self):
                pass

        with ServeServer(tmp_path / "wal.jsonl", SMALL,
                         fsync=False) as server:
            client = ServeClient(Garbler(server), client_id="c",
                                 policy=FAST)
            assert client.hello()["ok"] is True

    def test_non_retryable_error_raises_immediately(self, tmp_path):
        with ServeServer(tmp_path / "wal.jsonl", SMALL,
                         fsync=False) as server:
            client = ServeClient(LoopbackTransport(server),
                                 client_id="c", policy=FAST)
            with pytest.raises(ConfigurationError, match="unknown op"):
                client._call({"op": "nope"})

    def test_empty_client_id_refused(self):
        with pytest.raises(ConfigurationError, match="client_id"):
            ServeClient(None, client_id="")


class TestTcpTransport:
    def test_connection_refused_is_transport_error(self):
        transport = TcpTransport("127.0.0.1", 9, timeout=0.5)
        with pytest.raises(TransportError, match="tcp 127.0.0.1:9"):
            transport.send('{"op": "hello"}')
        transport.close()

    def test_reconnects_through_server_restart(self, tmp_path):
        """One TcpTransport survives a full server stop/start cycle."""
        wal = tmp_path / "wal.jsonl"
        bound = {}

        def serve_once():
            ready = threading.Event()

            def on_ready(port):
                bound["port"] = port
                ready.set()

            def run():
                with ServeServer(wal, SMALL, fsync=False) as server:
                    serve_tcp(server, port=bound.get("fixed", 0),
                              ready_callback=on_ready,
                              request_timeout=10)

            thread = threading.Thread(target=run)
            thread.start()
            ready.wait(timeout=10)
            bound["fixed"] = bound["port"]
            return thread

        thread = serve_once()
        transport = TcpTransport("127.0.0.1", bound["port"], timeout=10)
        client = ServeClient(transport, client_id="c", policy=FAST)
        client.register_tenant(TenantSpec(name="t"))
        client.shutdown()          # stops the first server instance
        thread.join(timeout=10)
        thread = serve_once()      # second instance, same port + WAL
        assert client.hello()["recovered"] is True  # auto-reconnected
        client.shutdown()
        thread.join(timeout=10)
        client.close()
