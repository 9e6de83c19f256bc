"""Evaluation layer: workload constants, cost model, simulators.

These tests pin the reproduction to the paper's published numbers
(Tables 2-4) and to the qualitative shapes of Figures 3, 8-13 and Table 5.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ClusterSpec, Experiment, ModelSpec, ParallelismSpec
from repro.chaos import (
    ChaosEvent,
    FailureTrace,
    evaluate_scenario,
    evaluate_trace,
)
from repro.core import checkfreq_interval
from repro.core.detector import DETECTION_TIME
from repro.core.replication import LOGGING_INIT_TIME
from repro.plan import Candidate, ExperimentSearchSpace
from repro.sim import (
    BERT_128,
    VIT_128_32,
    WIDE_RESNET_50,
    WORKLOADS,
    CostModel,
    EndToEndSimulator,
    ThroughputSimulator,
)

GB = 1e9

METHODS = ("global_checkpoint", "checkfreq", "elastic_horovod",
           "swift_replication", "swift_logging", "swift_logging_pr")


class TestWorkloadConstants:
    def test_table2_parameters(self):
        assert WIDE_RESNET_50.num_params == pytest.approx(1.23e9)
        assert VIT_128_32.num_params == pytest.approx(1.64e9)
        assert BERT_128.num_params == pytest.approx(1.11e9)

    def test_wrn_state_is_9_8_gb(self):
        """Section 2.2: 'a model state size of 9.8GB'."""
        assert WIDE_RESNET_50.state_bytes == pytest.approx(9.84e9, rel=0.01)

    def test_pipeline_shapes(self):
        for w in (VIT_128_32, BERT_128):
            assert w.num_stages == 128
            assert w.num_workers == 128
            assert w.parallelism == "PP"

    def test_micro_batch_sizes(self):
        assert VIT_128_32.micro_batch_size == 256
        assert BERT_128.micro_batch_size == 128

    def test_table4_iteration_times(self):
        assert WIDE_RESNET_50.iteration_time == pytest.approx(3.832, abs=0.01)
        assert VIT_128_32.iteration_time == pytest.approx(3.292, abs=0.01)
        assert BERT_128.iteration_time == pytest.approx(3.320, abs=0.01)

    def test_table3_logging_volumes(self):
        """The headline Table 3 numbers, within 1%."""
        assert VIT_128_32.logging_bytes_per_iteration(16) == pytest.approx(
            24.66 * GB, rel=0.01
        )
        assert VIT_128_32.logging_bytes_per_iteration(8) == pytest.approx(
            11.51 * GB, rel=0.01
        )
        assert BERT_128.logging_bytes_per_iteration(16) == pytest.approx(
            8.05 * GB, rel=0.01
        )
        assert BERT_128.logging_bytes_per_iteration(8) == pytest.approx(
            3.76 * GB, rel=0.01
        )

    def test_dp_workload_logs_nothing(self):
        assert WIDE_RESNET_50.logging_bytes_per_iteration() == 0.0

    def test_registry(self):
        assert set(WORKLOADS) == {"Wide-ResNet-50", "ViT-128/32", "BERT-128"}


class TestCostModel:
    def test_table3_bandwidth_column(self):
        """Average consumed bandwidth: ViT 0.23/0.11, BERT 0.075/0.035 GB/s."""
        vit, bert = CostModel(VIT_128_32), CostModel(BERT_128)
        assert vit.logging_bandwidth_per_machine(16) == pytest.approx(
            0.23 * GB, rel=0.02
        )
        assert vit.logging_bandwidth_per_machine(8) == pytest.approx(
            0.107 * GB, rel=0.05
        )
        assert bert.logging_bandwidth_per_machine(16) == pytest.approx(
            0.075 * GB, rel=0.02
        )
        assert bert.logging_bandwidth_per_machine(8) == pytest.approx(
            0.035 * GB, rel=0.02
        )

    def test_snapshot_forced_to_cpu_for_wrn(self):
        """Section 2.2: 30.4 of 32 GB used -> PCIe snapshot."""
        cost = CostModel(WIDE_RESNET_50)
        stall = cost.snapshot_stall()
        assert stall == pytest.approx(9.84e9 / cost.hw.snapshot_bw, rel=0.01)
        # the tuned CheckFreq interval lands on the paper's 30
        assert checkfreq_interval(
            cost.iteration_time, stall, 0.035
        ) == 30

    def test_small_model_snapshots_on_gpu(self):
        cost = CostModel(WIDE_RESNET_50)
        assert cost.snapshot_stall(gpu_used_bytes=1 * GB) < 0.05

    def test_pipelined_checkpoint_is_cheap(self):
        """Section 7.1: BERT-128 checkpoint overhead 0.93 s — sub-second."""
        stall = CostModel(BERT_128).global_checkpoint_stall()
        assert 0.05 < stall < 2.0

    def test_logging_fits_bubble_for_paper_workloads(self):
        for w in (VIT_128_32, BERT_128):
            cost = CostModel(w)
            assert cost.logging_overhead("bubble") == 0.0
            assert cost.logging_overhead("sync") > 0.0

    def test_sync_worse_than_async_worse_than_bubble(self):
        cost = CostModel(VIT_128_32)
        assert (
            cost.logging_overhead("bubble")
            < cost.logging_overhead("async")
            < cost.logging_overhead("sync")
        )

    def test_recovery_ordering(self):
        """The Figure 8 ordering: replication ≪ logging+PR < logging < ckpt."""
        cost = CostModel(VIT_128_32)
        lost = 50
        ckpt = cost.recovery_global_checkpoint(lost).recovery_time
        log = cost.recovery_logging(lost, 1, 1).recovery_time
        log_pr = cost.recovery_logging(lost, 1, 16).recovery_time
        assert log < ckpt
        assert log_pr < log
        repl = CostModel(WIDE_RESNET_50).recovery_replication().recovery_time
        assert repl < 0.05 * ckpt

    def test_bigger_groups_recover_slower(self):
        cost = CostModel(VIT_128_32)
        one = cost.recovery_logging(50, machines_per_group=1).recovery_time
        two = cost.recovery_logging(50, machines_per_group=2).recovery_time
        assert two > one

    def test_logging_recovery_rejected_for_dp(self):
        with pytest.raises(ValueError):
            CostModel(WIDE_RESNET_50).recovery_logging(10)


class TestThroughputSimulator:
    def test_swift_matches_normal_throughput(self):
        """Figure 8a top: Swift == normal training between checkpoints."""
        sim = ThroughputSimulator(WIDE_RESNET_50)
        swift = sim.swift_replication()
        cf = sim.checkfreq()
        eh = sim.elastic_horovod()
        assert swift.steady_throughput >= cf.steady_throughput
        assert swift.steady_throughput >= eh.steady_throughput

    def test_snapshot_iterations_visibly_slower(self):
        """Figure 3: iterations 30/60/90 spike under CheckFreq."""
        sim = ThroughputSimulator(WIDE_RESNET_50)
        cf = sim.checkfreq()
        snap_iters = [p.iteration for p in cf.points if p.event == "snapshot"]
        assert snap_iters  # periodic snapshots exist
        base = cf.steady_throughput
        for p in cf.points:
            if p.event == "snapshot":
                assert p.throughput < base

    def test_recovery_time_reductions_match_paper_shape(self):
        """Figure 8a bottom: ~98% reduction vs all three baselines."""
        sim = ThroughputSimulator(WIDE_RESNET_50)
        swift = sim.swift_replication().recovery_time
        for baseline in (sim.global_checkpointing(), sim.checkfreq(),
                         sim.elastic_horovod()):
            reduction = 1 - swift / baseline.recovery_time
            assert reduction > 0.95

    def test_logging_recovery_reduction(self):
        """Figure 8b/8c bottom: logging beats global ckpt; PR beats logging;
        8 groups slower than 16 groups."""
        for w in (VIT_128_32, BERT_128):
            sim = ThroughputSimulator(w)
            ckpt = sim.global_checkpointing().recovery_time
            g16 = sim.swift_logging(num_groups=16).recovery_time
            g8 = sim.swift_logging(num_groups=8).recovery_time
            pr = sim.swift_logging(num_groups=16, parallel_degree=16)
            assert g16 < ckpt
            assert g8 > g16
            assert pr.recovery_time < g16

    def test_sync_logging_degrades_throughput(self):
        """Figure 8b top: synchronous logging visibly slower."""
        sim = ThroughputSimulator(VIT_128_32)
        sync = sim.swift_logging(mode="sync")
        bubble = sim.swift_logging(mode="bubble")
        assert sync.steady_throughput < 0.9 * bubble.steady_throughput

    def test_recovery_timeline_goes_dark_then_recovers(self):
        """Figure 9 shape: zero throughput during recovery, then steady."""
        sim = ThroughputSimulator(VIT_128_32)
        series = sim.recovery_timeline("swift_logging", num_groups=16)
        values = [v for _, v in series]
        assert values[0] == 0.0 and values[-1] == 1.0
        # monotone step: once recovered, stays recovered
        switched = values.index(1.0)
        assert all(v == 1.0 for v in values[switched:])

    def test_logging_init_is_counted_once(self):
        """Figure 9: a logging timeline stalls for the price of its crash,
        which pays the §7.1 init once, with the join."""
        for w in (VIT_128_32, BERT_128):
            sim = ThroughputSimulator(w)
            tl = sim.swift_logging(num_groups=16)
            hw = sim.cost.hw
            assert tl.initialization_time == pytest.approx(
                DETECTION_TIME + hw.replacement_join_time
                + LOGGING_INIT_TIME)
            lost = sim.failure_at - sim.checkpoint_at
            stall = tl.total_time - sum(p.duration for p in tl.points)
            assert stall == pytest.approx(
                sim.cost.pricing("swift_logging").recovery(lost))


class TestEndToEndSimulator:
    def test_table5_speedups(self):
        """Swift end-to-end speedups: ~1.16x (WRN), ~1.10x (BERT), ~1x (ViT)."""
        wrn = EndToEndSimulator(WIDE_RESNET_50, repeats=5, seed=1)
        ckpt = wrn.simulate("global_checkpoint").mean_hours
        swift = wrn.simulate("swift_replication").mean_hours
        speedup = ckpt / swift
        assert 1.05 < speedup < 1.35

        bert = EndToEndSimulator(BERT_128, repeats=5, seed=1)
        speedup_bert = (
            bert.simulate("global_checkpoint").mean_hours
            / bert.simulate("swift_logging_pr").mean_hours
        )
        assert 1.02 < speedup_bert < 1.3

        vit = EndToEndSimulator(VIT_128_32, repeats=5, seed=1)
        speedup_vit = (
            vit.simulate("global_checkpoint").mean_hours
            / vit.simulate("swift_logging_pr").mean_hours
        )
        assert 0.98 < speedup_vit < 1.1  # short job: little benefit

    def test_failure_counts_scale_with_duration(self):
        """Table 5: ~28 failures for 480h jobs, ~5 for 86h jobs at 17h MTBF."""
        wrn = EndToEndSimulator(WIDE_RESNET_50, repeats=10, seed=2)
        r = wrn.simulate("global_checkpoint")
        assert 12 < r.mean_failures < 40
        vit = EndToEndSimulator(VIT_128_32, repeats=10, seed=2)
        assert vit.simulate("global_checkpoint").mean_failures < 12

    def test_no_failures_with_huge_mtbf(self):
        sim = EndToEndSimulator(WIDE_RESNET_50, repeats=2, seed=3)
        r = sim.simulate("swift_replication", median_tbf_hours=1e9)
        assert r.mean_failures == 0
        assert r.mean_hours == pytest.approx(r.failure_free_hours, rel=1e-6)

    def test_interval_sweep_is_convex_ish(self):
        """Figure 12: an interior optimal checkpoint interval exists."""
        sim = EndToEndSimulator(WIDE_RESNET_50, repeats=5, seed=4)
        intervals = [20, 300, 5000, 100000]
        hours = [r.mean_hours for r in
                 sim.sweep_interval("global_checkpoint", intervals)]
        best = int(np.argmin(hours))
        assert 0 < best < len(intervals) - 1

    def test_mtbf_sweep_monotone(self):
        """Figure 13: rarer failures => shorter total time."""
        sim = EndToEndSimulator(WIDE_RESNET_50, repeats=5, seed=5)
        results = sim.sweep_mtbf("global_checkpoint", [4, 17, 68])
        hours = [r.mean_hours for r in results]
        assert hours == sorted(hours, reverse=True)

    def test_swift_wins_at_every_mtbf(self):
        """Figure 13: Swift shortest at all failure frequencies."""
        sim = EndToEndSimulator(WIDE_RESNET_50, repeats=5, seed=6)
        for mtbf in (4.0, 17.0, 68.0):
            ckpt = sim.simulate("global_checkpoint",
                                median_tbf_hours=mtbf).mean_hours
            swift = sim.simulate("swift_replication",
                                 median_tbf_hours=mtbf).mean_hours
            assert swift < ckpt

    def test_unknown_method_rejected(self):
        sim = EndToEndSimulator(WIDE_RESNET_50, repeats=1)
        with pytest.raises(ValueError):
            sim.simulate("bogus")


# -- one pricer: CostModel.pricing -----------------------------------------

def _bridge_workloads():
    """Search-space bridge workloads: one DP, one pipeline candidate."""
    space = ExperimentSearchSpace(Experiment(
        model=ModelSpec(family="mlp", dim=4, hidden_dim=8, depth=4),
        cluster=ClusterSpec(num_machines=4, devices_per_machine=1),
        parallelism=ParallelismSpec(kind="dp", num_workers=4)))
    return tuple(
        space.to_workload(Candidate(
            kind=kind, num_workers=4, num_microbatches=m, strategy=strategy,
            checkpoint_interval=10, parallel_recovery_degree=1))
        for kind, m, strategy in (("dp", 1, "replication"),
                                  ("pp", 2, "logging"))
    )


PRICED_WORKLOADS = (WIDE_RESNET_50, VIT_128_32, BERT_128,
                    *_bridge_workloads())


def _priceable(w):
    return [m for m in METHODS
            if w.parallelism == "PP" or not m.startswith("swift_logging")]


def _reference_recovery(cost, method, lost, degree):
    """detection + join + the RecoveryTimes decomposition of one crash."""
    if method == "global_checkpoint":
        times = cost.recovery_global_checkpoint(lost)
    elif method in ("checkfreq", "elastic_horovod"):
        times = cost.recovery_snapshot(lost, method)
    elif method == "swift_replication":
        times = cost.recovery_replication()
    else:
        times = cost.recovery_logging(
            lost, 1, degree if method.endswith("_pr") else 1)
        # the logging init is charged with the join, summed beside the load
        times = replace(times, load_time=times.load_time + LOGGING_INIT_TIME)
    return DETECTION_TIME + cost.hw.replacement_join_time \
        + times.recovery_time


class TestPricing:
    @settings(deadline=None, max_examples=200)
    @given(
        drawn=st.sampled_from(PRICED_WORKLOADS).flatmap(
            lambda w: st.tuples(st.just(w), st.sampled_from(_priceable(w)))),
        experiment_time=st.booleans(),
        interval=st.integers(1, 100_000),
        degree=st.integers(1, 64),
        lost=st.integers(0, 10**8),
    )
    def test_recovery_is_the_decomposition_bit_for_bit(
            self, drawn, experiment_time, interval, degree, lost):
        workload, method = drawn
        cost = CostModel(workload, use_experiment_time=experiment_time)
        pricing = cost.pricing(method, interval, degree)
        assert pricing.recovery(lost) == _reference_recovery(
            cost, method, lost, degree)

    def test_logging_on_a_dp_workload_is_refused_before_any_crash(self):
        calm = FailureTrace(scenario="calm", seed=0, num_machines=2,
                            horizon_hours=10.0)
        crashing = FailureTrace(
            scenario="crash", seed=0, num_machines=2, horizon_hours=10.0,
            events=(ChaosEvent(time_hours=5.0, machine_id=0),))
        refusal = "logging recovery applies to pipeline parallelism"
        for trace in (calm, crashing):
            with pytest.raises(ValueError, match=refusal):
                evaluate_trace(trace, WIDE_RESNET_50, "swift_logging_pr")
        sim = EndToEndSimulator(WIDE_RESNET_50, repeats=1)
        for mtbf in (1e12, 1.0):  # no failure lands / failures land
            with pytest.raises(ValueError, match=refusal):
                sim.simulate("swift_logging", median_tbf_hours=mtbf)


# -- regression pins: exact outputs before the pricer was unified -----------

TABLE5_PINS = {
    ("Wide-ResNet-50", "global_checkpoint"): "EndToEndResult(method='global_checkpoint', mean_hours=528.7319536229323, std_hours=9.846929667996278, mean_failures=18.6, failure_free_hours=479.54350000000005)",  # noqa: E501
    ("Wide-ResNet-50", "swift_replication"): "EndToEndResult(method='swift_replication', mean_hours=479.5899889276887, std_hours=0.009360556899305995, mean_failures=18.6, failure_free_hours=479.54350000000005)",  # noqa: E501
    ("ViT-128/32", "global_checkpoint"): "EndToEndResult(method='global_checkpoint', mean_hours=86.02361624885165, std_hours=0.22870589317053347, mean_failures=3.0, failure_free_hours=85.60498263888888)",  # noqa: E501
    ("ViT-128/32", "swift_logging_pr"): "EndToEndResult(method='swift_logging_pr', mean_hours=85.69416808097078, std_hours=0.04742166489115582, mean_failures=3.0, failure_free_hours=85.60498263888888)",  # noqa: E501
    ("BERT-128", "global_checkpoint"): "EndToEndResult(method='global_checkpoint', mean_hours=506.04343504282843, std_hours=8.065393365655591, mean_failures=17.8, failure_free_hours=461.10168619791665)",  # noqa: E501
    ("BERT-128", "swift_logging_pr"): "EndToEndResult(method='swift_logging_pr', mean_hours=464.4117381120212, std_hours=0.593763811324969, mean_failures=17.8, failure_free_hours=461.10168619791665)",  # noqa: E501
}

#: sha256 prefix of ``repr`` of evaluate_scenario over steady_mtbf and
#: storage_outage, seeds 0-1
SCENARIO_PINS = {
    ("BERT-128", "global_checkpoint"): "f15ab17426183791",
    ("BERT-128", "checkfreq"): "1f81f324db497206",
    ("BERT-128", "elastic_horovod"): "fecfc3892721de98",
    ("BERT-128", "swift_replication"): "d8411bb0fc163bf3",
    ("BERT-128", "swift_logging"): "6ff1233f7fd94cb7",
    ("BERT-128", "swift_logging_pr"): "183b936ddfb4877c",
    ("Wide-ResNet-50", "global_checkpoint"): "4659e79dcc93ce1e",
    ("Wide-ResNet-50", "checkfreq"): "f06c79851bfba2fd",
    ("Wide-ResNet-50", "elastic_horovod"): "0260f8a6dfbb6b0d",
    ("Wide-ResNet-50", "swift_replication"): "85e5dd21ef5e1270",
}


class TestPricingPins:
    @pytest.mark.parametrize("key", sorted(TABLE5_PINS))
    def test_table5_simulation_is_unchanged(self, key):
        # cmd_table5's defaults: 17 h MTBF, 10 repeats, seed 1
        sim = EndToEndSimulator(WORKLOADS[key[0]], median_tbf_hours=17.0,
                                repeats=10, seed=1)
        assert repr(sim.simulate(key[1])) == TABLE5_PINS[key]

    @pytest.mark.parametrize("key", sorted(SCENARIO_PINS))
    def test_scenario_goodput_is_unchanged(self, key):
        results = [
            evaluate_scenario(scenario, WORKLOADS[key[0]], key[1],
                              seeds=range(2))
            for scenario in ("steady_mtbf", "storage_outage")
        ]
        digest = hashlib.sha256(repr(results).encode()).hexdigest()
        assert digest[:16] == SCENARIO_PINS[key], results
