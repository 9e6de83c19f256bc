"""repro.serve.netchaos: deterministic network-fault injection.

* seeded fault schedules are bitwise-reproducible: the same seed yields
  the same drops/duplicates/reorders, frame for frame;
* the protocol fuzzer (bounded, tier-1) never crashes the decoder —
  every mutated frame comes back as a parseable fault envelope;
* the acceptance matrix: every netchaos profile, the crash-restart
  cell, storm+crash, and segment corruption (left unverified by the
  cold restart, flagged by the full audit) all finish with zero
  acked-submission loss, zero duplicate admissions, and a final state
  (and event history, where applicable) bitwise-equal to the unfaulted
  baseline.
"""

import pytest

from repro.cli import main as cli_main
from repro.errors import ConfigurationError
from repro.serve import (
    NETCHAOS_PROFILES,
    BackoffPolicy,
    FaultyTransport,
    LoopbackTransport,
    NetChaosConfig,
    ServeClient,
    ServeConfig,
    ServeServer,
    demo_traffic,
    fuzz_protocol,
    network_drill,
    run_script_via_client,
)

SMALL = ServeConfig(num_machines=5, devices_per_machine=2, num_spares=1,
                    repair_ticks=3, snapshot_interval=10)

FAST = BackoffPolicy(retries=12, base_delay=0.0001, max_delay=0.001,
                     seed=0)

EXPECTED_CELLS = tuple(NETCHAOS_PROFILES) + (
    "crash-restart", "storm+crash", "corruption",
)


class TestNetChaosConfig:
    def test_probabilities_validated(self):
        with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
            NetChaosConfig(drop_request=1.5)

    def test_builtin_profiles_are_valid(self):
        for name, profile in NETCHAOS_PROFILES.items():
            assert isinstance(profile, NetChaosConfig), name

    def test_unknown_profile_refused(self):
        with pytest.raises(ConfigurationError, match="unknown netchaos"):
            network_drill(profiles=("not-a-profile",))


class TestFaultyTransportDeterminism:
    def faulted_run(self, tmp_path, tag, seed):
        cfg = NetChaosConfig(
            **{**NETCHAOS_PROFILES["storm"].__dict__, "seed": seed}
        )
        with ServeServer(tmp_path / f"wal-{tag}.jsonl", SMALL,
                         fsync=False) as server:
            transport = FaultyTransport(LoopbackTransport(server), cfg)
            client = ServeClient(transport, client_id="drill",
                                 policy=FAST)
            acks = run_script_via_client(client, demo_traffic())
            return dict(transport.stats), acks, server.state.snapshot()

    def test_same_seed_is_bitwise_reproducible(self, tmp_path):
        a = self.faulted_run(tmp_path, "a", seed=5)
        b = self.faulted_run(tmp_path, "b", seed=5)
        assert a == b  # stats, acks, and final state all identical

    def test_different_seed_schedules_different_faults(self, tmp_path):
        a, _, _ = self.faulted_run(tmp_path, "a", seed=5)
        c, _, _ = self.faulted_run(tmp_path, "c", seed=6)
        assert a != c

    def test_faults_actually_fire(self, tmp_path):
        stats, acks, _ = self.faulted_run(tmp_path, "x", seed=0)
        assert stats["frames"] > 0
        assert (stats["dropped_requests"] + stats["dropped_responses"]
                + stats["duplicated"] + stats["replayed_stale"]) > 0
        assert len(acks) == 8  # every scripted submission got its ack


class TestFuzzProtocol:
    def test_bounded_fuzz_never_crashes_decoder(self, tmp_path):
        with ServeServer(tmp_path / "wal.jsonl", SMALL,
                         fsync=False) as server:
            report = fuzz_protocol(server, iterations=150, seed=3)
            assert report["iterations"] == 150
            assert report["crashes"] == 0
            assert report["fault_envelopes"] > 0
            # the server is still coherent after the storm of garbage
            client = ServeClient(LoopbackTransport(server),
                                 client_id="after", policy=FAST)
            assert client.hello()["ok"] is True

    def test_fuzz_is_seeded(self, tmp_path):
        with ServeServer(tmp_path / "wal.jsonl", SMALL,
                         fsync=False) as server:
            a = fuzz_protocol(server, iterations=60, seed=9)
            b = fuzz_protocol(server, iterations=60, seed=9)
            assert a == b


class TestNetworkDrill:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        return network_drill(
            seed=0, workdir=tmp_path_factory.mktemp("netchaos"),
        )

    def test_matrix_passes(self, report):
        assert report.passed
        assert tuple(c.cell for c in report.cells) == EXPECTED_CELLS

    def test_zero_acked_loss_zero_duplicates(self, report):
        assert report.acked_lost == 0
        assert report.duplicate_admissions == 0

    def test_every_cell_matches_baseline_state(self, report):
        for cell in report.cells:
            assert cell.final_state_equal, cell
            assert cell.events_equal, cell

    def test_crash_cells_actually_restart(self, report):
        by_name = {c.cell: c for c in report.cells}
        assert by_name["crash-restart"].restarts > 0
        assert by_name["storm+crash"].restarts > 0

    def test_corruption_cell_quarantines(self, report):
        # the cold restart reads from the newest anchor forward: the
        # flipped segment 0 behind it is left unverified, not set aside,
        # and the full audit flags it with zero state damage
        cell = {c.cell: c for c in report.cells}["corruption"]
        assert cell.quarantined == 0
        assert cell.unverified[0] == 0
        assert cell.flagged == ((0, False),)
        assert cell.final_state_equal
        assert cell.acked_lost == 0 and cell.duplicate_admissions == 0

    def test_report_table_renders(self, report):
        table = report.format_table()
        assert "baseline" in table
        assert "PASS" in table


class TestNetchaosCLI:
    def test_netchaos_mode_exits_zero_on_pass(self, capsys):
        assert cli_main(["serve", "--netchaos"]) == 0
        out = capsys.readouterr().out
        assert "network chaos drill" in out
        assert "PASS" in out

    def test_netchaos_conflicts_with_other_modes(self, capsys):
        assert cli_main(["serve", "--netchaos", "--demo"]) == 2
        assert "pick one" in capsys.readouterr().err
