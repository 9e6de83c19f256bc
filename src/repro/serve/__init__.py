"""repro.serve — a crash-recoverable, multi-tenant control plane.

The paper's thesis is that recovery should be *expedited* — resume from
exactly where the failure hit instead of restarting the world.  This
package applies that discipline to the layer the rest of the repo takes
for granted: the scheduler itself.  A long-running service accepts
:class:`~repro.jobs.JobSpec` submissions from multiple tenants over a
newline-delimited JSON protocol and schedules them onto a simulated
cluster — and it survives being SIGKILLed at any instant:

* **the WAL is the truth** (:mod:`repro.serve.wal`): every transition is
  one :class:`ServeEvent`, durably appended *before* it is acknowledged;
  :class:`ServeState` is a pure fold over the log, so restart = replay;
* **a fault envelope** (:mod:`repro.serve.retry`): bounded retries with
  deterministic backoff + jitter carry checkpoint-storage writes through
  :class:`~repro.cluster.GlobalStore` outage windows; torn WAL tails are
  salvaged; cluster shrink sheds the lowest-priority queue entries
  instead of deadlocking;
* **self-chaos** (:mod:`repro.serve.drill`): :func:`control_plane_drill`
  kills the control plane at N WAL offsets (tearing alternate cut
  lines) and proves bitwise-equal replay, zero acknowledged-submission
  loss, and goodput identical to the uninterrupted run;
* **one scheduler** (:func:`~repro.serve.server.decide`): the server's
  decide phases place, preempt and restore through the pure gang policy
  of :mod:`repro.jobs.placement`; a :class:`~repro.sim.FleetSimulator`
  runs the same phases over its own fold and executes their events on
  live jobs, so its WAL, given one, is its state;
* **exactly-once sessions** (:mod:`repro.serve.client`): client-stamped
  request ids fold into the state as a dedup table, so a retry after a
  lost ack returns the original verdict — :class:`ServeClient`
  reconnects and retries through :class:`BackoffPolicy` safely;
* **network chaos** (:mod:`repro.serve.netchaos`): a seeded in-process
  fault proxy drops/duplicates/reorders/truncates/partitions protocol
  frames; :func:`network_drill` runs the netchaos × crash-restart ×
  corruption matrix and :func:`fuzz_protocol` fuzzes the decoder;
* **segmented WAL** (:mod:`repro.serve.segments`): per-record CRC
  (schema v2) catches mid-file bit rot, segment rotation with snapshot
  anchors bounds both the recovery fold and the bytes on disk, a
  reopen reads only the newest clean anchor's chain (older segments
  stay unverified until ``inspect`` audits them), and corrupt segments
  are quarantined with an exact loss report.

Quick tour::

    >>> import tempfile, os
    >>> from repro.jobs import JobSpec
    >>> path = os.path.join(tempfile.mkdtemp(), "wal.jsonl")
    >>> with ServeServer(path, ServeConfig(num_machines=4,
    ...                                    devices_per_machine=2)) as s:
    ...     _ = s.register_tenant(TenantSpec(name="team"))
    ...     verdict = s.submit("team", JobSpec(name="j", parallelism="dp",
    ...                                        num_workers=2, iterations=2))
    ...     s.run()
    >>> verdict
    ('accepted', 'j')
"""

from repro.serve.client import (
    LoopbackTransport,
    ServeClient,
    TcpTransport,
    TransportError,
)
from repro.serve.drill import (
    DrillReport,
    KillPointResult,
    TrafficScript,
    control_plane_drill,
    demo_config,
    demo_traffic,
    run_script,
    synthetic_traffic,
)
from repro.serve.netchaos import (
    NETCHAOS_PROFILES,
    FaultyTransport,
    NetChaosCellResult,
    NetChaosConfig,
    NetworkDrillReport,
    fuzz_protocol,
    network_drill,
    run_script_via_client,
)
from repro.serve.protocol import (
    GracefulShutdown,
    handle_request,
    install_graceful_shutdown,
    respond_line,
    serve_stdio,
    serve_tcp,
)
from repro.serve.retry import BackoffPolicy, backoff_delays, retry_call
from repro.serve.segments import (
    DEFAULT_SEGMENT_BYTES,
    SegmentedWriteAheadLog,
    SegmentInspection,
    open_wal,
)
from repro.serve.server import ServeConfig, ServeServer, TenantSpec
from repro.serve.state import ServeState
from repro.serve.wal import WAL_VERSION, ServeEvent, WriteAheadLog

__all__ = [
    "WAL_VERSION",
    "ServeEvent",
    "WriteAheadLog",
    "SegmentedWriteAheadLog",
    "SegmentInspection",
    "DEFAULT_SEGMENT_BYTES",
    "open_wal",
    "ServeState",
    "TenantSpec",
    "ServeConfig",
    "ServeServer",
    "BackoffPolicy",
    "backoff_delays",
    "retry_call",
    "handle_request",
    "respond_line",
    "serve_stdio",
    "serve_tcp",
    "GracefulShutdown",
    "install_graceful_shutdown",
    "TransportError",
    "LoopbackTransport",
    "TcpTransport",
    "ServeClient",
    "NetChaosConfig",
    "NETCHAOS_PROFILES",
    "FaultyTransport",
    "fuzz_protocol",
    "run_script_via_client",
    "network_drill",
    "NetChaosCellResult",
    "NetworkDrillReport",
    "TrafficScript",
    "run_script",
    "demo_config",
    "demo_traffic",
    "synthetic_traffic",
    "control_plane_drill",
    "DrillReport",
    "KillPointResult",
]
