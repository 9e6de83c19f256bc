"""ServeState's scheduling indexes equal recomputation after every event.

``ServeState.apply`` keeps the indexes behind ``free_slots``,
``tenant_usage``, ``tenant_demand``, ``pending_count``,
``jobs_with_status``, ``all_done``, ``summary()["jobs"]`` and the
server's head of line.  A folded or restored state builds them on its
first query instead.  These tests hold both ways of getting them to the
O(jobs) bodies in :mod:`serve_views`:

* folding the checked-in golden WAL one event at a time;
* a generated run over ``ServeServer`` (submit, tick, crash, retire,
  preempting submit), checked after every appended event, with restored
  and prefix-replayed states checked through the lazy build;
* generated queues, where the per-tenant head must be the job
  ``head_of_line`` picks over the whole queue.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.jobs import JobSpec
from repro.serve import (
    ServeConfig,
    ServeEvent,
    ServeServer,
    ServeState,
    TenantSpec,
    WriteAheadLog,
)
from serve_views import (
    assert_views_match,
    indexed_head,
    indexed_views,
    recomputed_head,
)

GOLDEN_WAL = Path(__file__).parent / "traces" / "serve_wal_golden.jsonl"


class TestGoldenFold:
    def test_incremental_equals_recomputed_after_every_event(self):
        events = WriteAheadLog.load_events(GOLDEN_WAL)
        assert {"preempt", "crash", "lease"} <= {e.kind for e in events}
        state = ServeState()
        state.free_slots()  # build now: every event below updates them
        index = state._index
        for k, event in enumerate(events, start=1):
            assert state.apply(event)
            views = assert_views_match(state)
            assert state._index is index  # kept, never rebuilt
            assert indexed_views(ServeState.replay(events[:k])) == views
            assert indexed_views(
                ServeState.restore(state.snapshot())) == views

    def test_indexes_are_not_snapshotted(self):
        events = WriteAheadLog.load_events(GOLDEN_WAL)
        lazy = ServeState.replay(events)
        built = ServeState()
        built.all_done()
        for event in events:
            built.apply(event)
        assert lazy.snapshot() == built.snapshot()


class TestLazyBuild:
    def _finished_wal(self, tmp_path, **options) -> Path:
        path = tmp_path / "wal"
        config = ServeConfig(num_machines=4, devices_per_machine=2,
                             num_spares=1, repair_ticks=2,
                             snapshot_interval=10)
        with ServeServer(path, config, fsync=False, **options) as server:
            server.register_tenant(TenantSpec(name="a"))
            for i in range(6):
                server.submit("a", JobSpec(name=f"j{i}", parallelism="dp",
                                           num_workers=2, iterations=2))
            server.tick()
            server.inject_failure(0)
            server.run()
        return path

    def test_reopen_builds_nothing_until_the_first_query(self, tmp_path):
        for options in ({}, {"segment_bytes": 1024}):
            path = self._finished_wal(tmp_path / str(len(options)),
                                      **options)
            with ServeServer(path, fsync=False, **options) as server:
                assert server.recovered
                assert server.state._index is None
                views = assert_views_match(server.state)
                assert server.state._index is not None
            assert views["all_done"]

    def test_replay_and_restore_build_nothing(self):
        events = WriteAheadLog.load_events(GOLDEN_WAL)
        state = ServeState.replay(events)
        assert state._index is None
        assert ServeState.restore(state.snapshot())._index is None


TENANTS = {
    # name: (share, quota, max_pending)
    "prod": (2.0, 64, 64),
    "research": (1.0, 5, 64),
    "batch": (0.5, 64, 2),
}


class ServeIndexMachine(RuleBasedStateMachine):
    """A server under generated traffic; views checked after each event."""

    def __init__(self):
        super().__init__()
        self.workdir = tempfile.mkdtemp(prefix="serve-index-")
        self.server = None
        self.jobs = 0
        #: seq -> the live (incrementally kept) views after that event
        self.views_at: list[dict] = []

    @initialize()
    def open_server(self):
        self.server = ServeServer(
            Path(self.workdir) / "wal.jsonl",
            ServeConfig(num_machines=5, devices_per_machine=2,
                        num_spares=1, repair_ticks=2,
                        snapshot_interval=1000),
            fsync=False,
        )
        self.server.state.free_slots()  # from here on, apply keeps them
        self.views_at.append(assert_views_match(self.server.state))
        append = self.server._log

        def checked(kind, payload):
            event = append(kind, payload)
            assert len(self.views_at) == event.seq
            self.views_at.append(assert_views_match(self.server.state))
            return event

        self.server._log = checked
        for name, (share, quota, pending) in TENANTS.items():
            self.server.register_tenant(TenantSpec(
                name=name, share=share, quota=quota, max_pending=pending))

    def teardown(self):
        if self.server is not None:
            self.server.close()
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _submit(self, tenant, workers, priority, elastic):
        self.jobs += 1
        return self.server.submit(tenant, JobSpec(
            name=f"j{self.jobs}", parallelism="dp", num_workers=workers,
            iterations=3, priority=priority, elastic=elastic,
            min_workers=1 if elastic else workers))

    def _check_rebuilds(self, k):
        state = self.server.state
        events = self.server.wal.all_events()
        assert (indexed_views(ServeState.restore(state.snapshot()))
                == self.views_at[-1])
        k = 1 + k % len(events)
        assert indexed_views(ServeState.replay(events[:k])) \
            == self.views_at[k - 1]

    @rule(tenant=st.sampled_from(sorted(TENANTS)),
          workers=st.integers(1, 11), priority=st.integers(0, 2),
          elastic=st.booleans(), k=st.integers(0, 10_000))
    def submit(self, tenant, workers, priority, elastic, k):
        self._submit(tenant, workers, priority, elastic)
        self._check_rebuilds(k)

    @rule(k=st.integers(0, 10_000))
    def tick(self, k):
        self.server.tick()
        self._check_rebuilds(k)

    @precondition(lambda self: self.server is not None
                  and self.server.state.jobs_with_status("running"))
    @rule(pick=st.integers(0, 100), k=st.integers(0, 10_000))
    def crash_under_running_job(self, pick, k):
        running = self.server.state.jobs_with_status("running")
        job = running[pick % len(running)]
        machine = job["slots"][pick % len(job["slots"])][0]
        self.server.inject_failure(machine)
        self._check_rebuilds(k)

    @rule(machine=st.integers(0, 4), k=st.integers(0, 10_000))
    def retire(self, machine, k):
        self.server.shrink_cluster([machine])
        self._check_rebuilds(k)

    @precondition(lambda self: self.server is not None and any(
        job["spec"].get("elastic") and len(job["slots"]) > 1
        for job in self.server.state.jobs_with_status("running")))
    @rule(k=st.integers(0, 10_000))
    def preempting_submit(self, k):
        # one worker more than is free: only shrinking an elastic,
        # lower-priority job makes room
        want = len(self.server.state.free_slots()) + 1
        self._submit("prod", want, 9, True)
        self.server.tick()
        self._check_rebuilds(k)

    @invariant()
    def queue_matches_the_queued_status(self):
        if self.server is not None:
            state = self.server.state
            assert sorted(state.queue) == [
                job["name"] for job in state.jobs_with_status("queued")]


ServeIndexMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=25, deadline=None)
TestServeIndexMachine = ServeIndexMachine.TestCase


@st.composite
def queues(draw):
    """A state with tenants, running jobs and a queue, as WAL events."""
    shares = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]),
                           min_size=1, max_size=4))
    tenants = [f"t{i}" for i in range(len(shares))]
    jobs = draw(st.lists(st.tuples(
        st.sampled_from(tenants),          # tenant
        st.integers(0, 3),                 # priority
        st.integers(0, 2),                 # slots held (0 = queued)
    ), min_size=1, max_size=14))
    reserve = draw(st.booleans())
    payloads = [("init", {"num_machines": 16, "devices_per_machine": 2,
                          "spares": [], "repair_ticks": 1})]
    payloads += [("tenant", {"name": t, "share": s})
                 for t, s in zip(tenants, shares)]
    free = [[m, d] for m in range(16) for d in range(2)]
    queued, donors = [], []
    for i, (tenant, priority, held) in enumerate(jobs):
        name = f"j{i}"
        payloads.append(("submit", {"name": name, "tenant": tenant, "spec": {
            "num_workers": max(held, 1), "priority": priority,
            "iterations": 1}}))
        if held:
            slots, free = free[:held], free[held:]
            payloads.append(("place", {"name": name, "slots": slots}))
            if held == 2:
                donors.append((name, slots[-1]))
        else:
            queued.append(name)
    if reserve and queued and donors:
        pick = draw(st.integers(0, len(queued) - 1))
        name, slot = donors[0]
        payloads.append(("preempt", {"name": name, "slots": [slot],
                                     "for": queued[pick]}))
    return [ServeEvent(seq=i, kind=kind, payload=p)
            for i, (kind, p) in enumerate(payloads)]


class TestHeadOfLine:
    @settings(deadline=None, max_examples=80)
    @given(events=queues(), built_early=st.booleans())
    def test_per_tenant_head_is_the_whole_queue_head(self, events,
                                                     built_early):
        state = ServeState()
        if built_early:
            state.free_slots()
        for event in events:
            state.apply(event)
        if not state.queue:
            return
        head = indexed_head(state)
        assert head is recomputed_head(state)
        reserved = [state.jobs[name] for name in state.queue
                    if state.jobs[name]["reserved_slots"]]
        if reserved:
            assert head is min(reserved,
                               key=lambda job: job["submitted_seq"])
