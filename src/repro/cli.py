"""Command-line interface: run paper experiments from the terminal.

Usage::

    python -m repro.cli table3
    python -m repro.cli table5 [--mtbf 17] [--repeats 10]
    python -m repro.cli fig8 {wrn|vit|bert} [--scenario NAME]
    python -m repro.cli plan --workload bert --budget-gb 200
    python -m repro.cli plan --optimize [--workload bert]
                             [--scenario NAME] [--searcher NAME] [--json]
    python -m repro.cli workloads
    python -m repro.cli fleet [--machines 6] [--devices 4] [--spares 1]
    python -m repro.cli fleet --scenario rack_burst [--scenario-seed 0]
    python -m repro.cli chaos --list
    python -m repro.cli chaos --scenario rack_burst --seeds 5
    python -m repro.cli schedule --list
    python -m repro.cli schedule --dump 1f1b -p 4 -m 8 [-o prog.jsonl]
    python -m repro.cli schedule --verify prog.jsonl
    python -m repro.cli chaos --trace traces/rack_burst_seed0.jsonl
    python -m repro.cli obs traces/telemetry.jsonl [--chrome out.json]
    python -m repro.cli obs traces/live.jsonl --follow
    python -m repro.cli serve --demo [--wal serve.jsonl]
    python -m repro.cli serve --drill [--kill-points 5]
    python -m repro.cli serve --stdio --wal serve.jsonl
    python -m repro.cli serve --replay serve.jsonl
    python -m repro.cli serve --fleet-demo [--wal fleet-wal.jsonl]

Each subcommand prints the same rows the corresponding paper artifact
reports (the pytest benchmarks under ``benchmarks/`` are the asserted
versions of the same computations).  ``chaos`` runs real engines under a
named :mod:`repro.chaos` failure scenario, one seed per run, and writes
each run's :class:`~repro.chaos.FailureTrace` as replayable JSONL;
replaying a trace re-executes the run bitwise (the goodput must match
the recorded value exactly, and the exit code says whether it did).
``serve`` runs the crash-recoverable control plane of
:mod:`repro.serve`.

Exit codes: 0 success, 1 data problem (unreadable/corrupt trace or WAL,
failed verification), 2 usage error (bad flags, unknown names).  A bad
input file never produces a bare traceback — always a one-line
diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.api import (
    ClusterSpec,
    DataSpec,
    Experiment,
    FaultToleranceSpec,
    FTStrategy,
    ModelSpec,
    ParallelismSpec,
    demo_fleet_specs,
    plan_workload,
)
from repro.chaos import (
    FailureTrace,
    evaluate_scenario,
    get_scenario,
    scenario_names,
)
from repro.errors import ConfigurationError, LogIntegrityError
from repro.obs import (
    JsonlSink,
    TelemetryEvent,
    TelemetryTrace,
    TraceRecorder,
    summarize_telemetry,
    telemetry_to_csv,
    to_chrome_trace,
)
from repro.serve import (
    SegmentedWriteAheadLog,
    ServeConfig,
    ServeServer,
    ServeState,
    WriteAheadLog,
    control_plane_drill,
    demo_config,
    demo_traffic,
    install_graceful_shutdown,
    network_drill,
    run_script,
    serve_stdio,
    serve_tcp,
)
from repro.sim import (
    BERT_128,
    VIT_128_32,
    WIDE_RESNET_50,
    WORKLOADS,
    CostModel,
    EndToEndSimulator,
    FleetSimulator,
    ThroughputSimulator,
)

__all__ = ["build_parser", "main"]

GB = 1e9

_WORKLOAD_ALIASES = {
    "wrn": WIDE_RESNET_50,
    "vit": VIT_128_32,
    "bert": BERT_128,
}


def cmd_workloads(_: argparse.Namespace) -> int:
    print(f"{'model':<16} {'params':>8} {'parallelism':>11} {'workers':>7} "
          f"{'batch':>6} {'state':>8}")
    for w in WORKLOADS.values():
        print(f"{w.name:<16} {w.num_params / 1e9:>7.2f}B {w.parallelism:>11} "
              f"{w.num_workers:>7} {w.batch_size:>6} "
              f"{w.state_bytes / GB:>7.2f}G")
    return 0


def cmd_table3(_: argparse.Namespace) -> int:
    print(f"{'model':<12} {'#groups':>7} {'GB/iter':>8} {'GB/s/machine':>13}")
    for w in (VIT_128_32, BERT_128):
        cost = CostModel(w)
        for groups in (16, 8):
            print(f"{w.name:<12} {groups:>7} "
                  f"{cost.logging_bytes_per_iteration(groups) / GB:>8.2f} "
                  f"{cost.logging_bandwidth_per_machine(groups) / GB:>13.3f}")
    return 0


def cmd_table5(args: argparse.Namespace) -> int:
    methods = {
        "Wide-ResNet-50": "swift_replication",
        "ViT-128/32": "swift_logging_pr",
        "BERT-128": "swift_logging_pr",
    }
    print(f"median TBF = {args.mtbf}h, repeats = {args.repeats}")
    print(f"{'model':<16} {'#fail':>5} {'ckpt':>8} {'swift':>8} {'speedup':>8}")
    for w in (WIDE_RESNET_50, VIT_128_32, BERT_128):
        sim = EndToEndSimulator(w, median_tbf_hours=args.mtbf,
                                repeats=args.repeats, seed=args.seed)
        ckpt = sim.simulate("global_checkpoint")
        swift = sim.simulate(methods[w.name])
        print(f"{w.name:<16} {ckpt.mean_failures:>5.0f} "
              f"{ckpt.mean_hours:>7.1f}h {swift.mean_hours:>7.1f}h "
              f"{ckpt.mean_hours / swift.mean_hours:>7.2f}x")
    return 0


#: fig8 column -> analytic cost-model method (for --scenario goodput)
_FIG8_METHODS = {
    "global_ckpt": "global_checkpoint",
    "checkfreq": "checkfreq",
    "elastic_horovod": "elastic_horovod",
    "swift_replication": "swift_replication",
    "swift_16groups": "swift_logging",
    "swift_8groups": "swift_logging",
    "swift_sync": "swift_logging",
    "swift_16g_PR": "swift_logging_pr",
}


def cmd_fig8(args: argparse.Namespace) -> int:
    workload = _WORKLOAD_ALIASES[args.workload]
    sim = ThroughputSimulator(workload)
    # the repro.api planner decides which recovery family the workload
    # exercises (Section 3), hence which method column set to print
    strategy = plan_workload(workload).strategy
    if strategy is FTStrategy.REPLICATION:
        timelines = {
            "global_ckpt": sim.global_checkpointing(),
            "checkfreq": sim.checkfreq(),
            "elastic_horovod": sim.elastic_horovod(),
            "swift_replication": sim.swift_replication(),
        }
    else:
        timelines = {
            "global_ckpt": sim.global_checkpointing(),
            "swift_16groups": sim.swift_logging(num_groups=16),
            "swift_8groups": sim.swift_logging(num_groups=8),
            "swift_sync": sim.swift_logging(mode="sync"),
            "swift_16g_PR": sim.swift_logging(num_groups=16,
                                              parallel_degree=16),
        }
    scenario_col = ""
    goodput_by_method: dict[str, float] = {}
    if args.scenario:
        # several fig8 columns share one analytic method (the group
        # count does not change the cost-model pricing): evaluate each
        # method once
        for method in {_FIG8_METHODS[n] for n in timelines}:
            results = evaluate_scenario(
                args.scenario, workload, method, seeds=range(args.seeds),
            )
            goodput_by_method[method] = (
                sum(r.goodput_fraction for r in results) / len(results)
            )
        scenario_col = f" {'goodput@' + args.scenario:>22}"
    print(f"{'method':<20} {'throughput':>11} {'recovery':>9}{scenario_col}")
    for name, tl in timelines.items():
        extra = ""
        if args.scenario:
            mean = goodput_by_method[_FIG8_METHODS[name]]
            extra = f" {mean * 100:>21.1f}%"
        print(f"{name:<20} {tl.steady_throughput:>11.1f} "
              f"{tl.recovery_time:>8.1f}s{extra}")
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    if args.optimize:
        return _plan_optimize(args)
    if args.budget_gb is None:
        print("plan: --budget-gb is required without --optimize",
              file=sys.stderr)
        return 2
    workload = _WORKLOAD_ALIASES[args.workload]
    plan = plan_workload(
        workload,
        log_budget_bytes=args.budget_gb * GB,
        checkpoint_interval=args.ckpt_interval,
    )
    if plan.strategy is not FTStrategy.LOGGING:
        print("selective logging applies to pipeline-parallel workloads",
              file=sys.stderr)
        return 2
    result = plan.selective
    if args.json:
        from repro.utils.jsonl import canonical_json

        print(canonical_json({
            "workload": workload.name,
            "budget_gb": args.budget_gb,
            "checkpoint_interval": args.ckpt_interval,
            "strategy": plan.strategy.value,
            "groups": [list(g) for g in result.plan.groups],
            "storage_bytes": result.storage_bytes,
            "expected_recovery_time": result.expected_recovery_time,
        }))
        return 0
    print(f"workload: {workload.name}, budget {args.budget_gb} GB, "
          f"ckpt interval {args.ckpt_interval}")
    print(plan.describe())
    print(f"groups ({result.plan.num_groups}): "
          f"{[list(g) for g in result.plan.groups]}")
    print(f"storage used: {result.storage_bytes / GB:.1f} GB")
    print(f"expected recovery: {result.expected_recovery_time:.3f} s "
          f"per lost iteration")
    return 0


def _plan_optimize(args: argparse.Namespace) -> int:
    """``repro plan --optimize``: goodput-driven auto-planning."""
    from repro.plan import PlanSearchError, autoplan_workload

    workload = _WORKLOAD_ALIASES[args.workload]
    try:
        report = autoplan_workload(
            workload, args.scenario,
            searcher=args.searcher,
            seed=args.search_seed,
            eval_seeds=args.seeds,
            top_k=args.top_k,
        )
    except PlanSearchError as exc:
        # the grid had no survivors: a data problem, not a usage error
        print(f"plan: {exc}", file=sys.stderr)
        return 1
    print(report.to_json() if args.json else report.describe())
    return 0


def cmd_schedule(args: argparse.Namespace) -> int:
    """``repro schedule``: list/dump/verify pipeline schedule programs."""
    from repro.parallel import (
        ScheduleProgram,
        ScheduleVerificationError,
        build_program,
        default_virtual_stages,
        schedule_names,
        simulate_program,
        verify_program,
    )

    modes = sum(1 for f in (args.list, args.dump, args.verify) if f)
    if modes != 1:
        print("schedule: exactly one of --list/--dump/--verify is required",
              file=sys.stderr)
        return 2
    if args.list:
        print(f"{'schedule':<20} {'virtual stages':>14}")
        for name in schedule_names():
            print(f"{name:<20} {default_virtual_stages(name):>14}")
        return 0
    if args.verify:
        try:
            program = ScheduleProgram.load(args.verify)
        except (OSError, ConfigurationError) as exc:
            print(f"schedule: unreadable program {args.verify!r}: {exc}",
                  file=sys.stderr)
            return 1
        try:
            check = verify_program(program)
        except ScheduleVerificationError as exc:
            print(f"schedule: INVALID {program.name!r}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"schedule {program.name!r} OK: "
              f"{program.num_stages} stages x "
              f"{program.num_microbatches} micro-batches "
              f"({program.virtual_stages} virtual), "
              f"{check.num_instructions} instructions, "
              f"peak in-flight {list(check.peak_in_flight)}")
        return 0
    # --dump NAME
    v = args.virtual_stages or default_virtual_stages(args.dump)
    program = build_program(
        args.dump, args.num_stages, args.num_microbatches, v
    )
    verify_program(program)
    text = program.to_jsonl()
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        timing = simulate_program(
            program,
            [1e-3] * program.num_stages,
            [2e-3] * program.num_stages,
        )
        print(f"wrote {program.num_instructions} instructions to "
              f"{args.output} (simulated iteration "
              f"{timing.iteration_time * 1e3:.2f} ms)")
    else:
        sys.stdout.write(text)
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """Multi-tenant fleet demo: mixed DP/PP jobs, preemption, failures."""
    recorder = sink = None
    if args.trace:
        try:
            trace = FailureTrace.load(args.trace)
        except (OSError, ConfigurationError) as exc:
            print(f"fleet: cannot read trace {args.trace!r}: {exc}",
                  file=sys.stderr)
            return 1
    else:
        trace = None
    try:
        specs, failures = demo_fleet_specs(args.iterations)
        if args.scenario or trace is not None:
            # scenario/trace-driven crashes replace the demo's scripted two
            failures = []
        if args.telemetry:
            # stream events to disk as they happen so another terminal
            # can `repro obs FILE --follow` the run live
            recorder = TraceRecorder()
            sink = JsonlSink(
                args.telemetry, source="fleet",
                machines=args.machines, devices=args.devices,
                spares=args.spares,
            )
            recorder.subscribe(sink)
        sim = FleetSimulator(
            specs,
            num_machines=args.machines,
            devices_per_machine=args.devices,
            num_spares=args.spares,
            failures=failures,
            scenario=args.scenario,
            scenario_seed=args.scenario_seed,
            trace=trace,
            recorder=recorder,
        )
        report = sim.run()
    finally:
        if sink is not None:
            sink.close()
    injected = (
        len(sim.chaos_trace.crashes) if sim.chaos_trace is not None
        else len(failures)
    )
    source = (
        f"scenario {sim.chaos_trace.scenario!r} "
        f"(seed {sim.chaos_trace.seed})"
        if sim.chaos_trace is not None else "scripted demo"
    )
    print(f"fleet: {len(specs)} jobs on {args.machines}x{args.devices} "
          f"shared cluster, {args.spares} spare(s), "
          f"{injected} injected failures [{source}]")
    print(report.format_table())
    if args.telemetry:
        print(f"telemetry streamed to {args.telemetry} "
              f"(summarize: python -m repro.cli obs {args.telemetry})")
    return 0


def _chaos_experiment(parallelism: str, machines: int,
                      checkpoint_interval: int) -> Experiment:
    """The small deterministic MLP workload `repro chaos` drives."""
    if parallelism == "pp":
        # the flat MLP has 2*depth+1 layers; depth >= stages guarantees
        # every stage holds at least one Linear (same rule as repro.jobs)
        depth = max(2, machines)
        par = ParallelismSpec(kind="pp", num_workers=machines,
                              num_microbatches=4)
        model = ModelSpec(family="mlp", dim=8, hidden_dim=16, num_classes=4,
                          depth=depth, seed=11, optimizer="adam", lr=0.01)
    else:
        par = ParallelismSpec(kind="dp", num_workers=machines)
        model = ModelSpec(family="mlp", dim=8, hidden_dim=16, num_classes=4,
                          depth=2, seed=11, optimizer="sgd_momentum", lr=0.05)
    return Experiment(
        name="chaos",
        model=model,
        data=DataSpec(kind="classification", batch_size=16, seed=12),
        cluster=ClusterSpec(num_machines=machines, devices_per_machine=1),
        parallelism=par,
        fault_tolerance=FaultToleranceSpec(
            checkpoint_interval=checkpoint_interval,
            # multi-failure traces: later crashes must never need the
            # earlier crash's (dropped) log records
            checkpoint_after_recovery=True,
        ),
    )


def _chaos_run(trace, parallelism: str, machines: int, iterations: int,
               checkpoint_interval: int, recorder=None):
    """Execute one trace on a real engine.

    Returns ``(TrainingTrace, batch_size, Session)``; pass a
    :class:`~repro.obs.TraceRecorder` to capture telemetry
    (``session.telemetry`` afterwards).
    """
    exp = _chaos_experiment(parallelism, machines, checkpoint_interval)
    session = exp.build()
    schedule = trace.to_schedule()
    run = session.run(
        iterations,
        failures=schedule,
        max_recoveries=len(schedule) + 16,
        recorder=recorder,
    )
    return run, exp.data.batch_size, session


def _telemetry_seed_path(base: str, seed: int) -> Path:
    """Per-seed telemetry file: insert ``_seedN`` before the suffix."""
    p = Path(base)
    return p.with_name(f"{p.stem}_seed{seed}{p.suffix or '.jsonl'}")


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run (or replay) a named failure scenario on real engines."""
    if args.list:
        print(f"{'scenario':<20} {'E[fail/100h]':>12}  description")
        for name in scenario_names():
            spec = get_scenario(name)
            rate = spec.rate_per_hour(args.machines) * 100
            print(f"{name:<20} {rate:>12.1f}  {spec.description}")
        return 0

    if args.trace:
        try:
            trace = FailureTrace.load(args.trace)
        except (OSError, ConfigurationError) as exc:
            print(f"chaos: cannot read trace {args.trace!r}: {exc}",
                  file=sys.stderr)
            return 1
        meta = trace.meta_dict
        parallelism = meta.get("parallelism", args.parallelism)
        machines = int(meta.get("machines", trace.num_machines))
        iterations = int(meta.get("iterations", trace.horizon_iters or 60))
        interval = int(meta.get("checkpoint_interval", args.ckpt_interval))
        recorder = TraceRecorder() if args.telemetry else None
        run, batch, session = _chaos_run(
            trace, parallelism, machines, iterations, interval,
            recorder=recorder,
        )
        goodput = run.goodput(batch)
        recorded = meta.get("goodput")
        print(f"replayed {args.trace}: scenario={trace.scenario} "
              f"seed={trace.seed} crashes={len(trace.crashes)}")
        print(f"  goodput: {goodput!r} samples/s "
              f"({len(run.recoveries)} recoveries, "
              f"final loss {run.losses[-1]!r})")
        if recorder is not None:
            telemetry = session.telemetry.with_meta(
                scenario=trace.scenario, scenario_seed=trace.seed,
            )
            path = telemetry.save(args.telemetry)
            print(f"  telemetry: {path} "
                  f"(summarize: python -m repro.cli obs {path})")
        if recorded is None:
            return 0
        match = repr(goodput) == recorded
        print(f"  recorded goodput: {recorded} -> "
              f"{'bitwise match' if match else 'MISMATCH'}")
        return 0 if match else 1

    if not args.scenario:
        print("chaos: pass --scenario NAME, --trace FILE, or --list",
              file=sys.stderr)
        return 2
    spec = get_scenario(args.scenario)

    out_dir = Path(args.out)
    print(f"scenario {spec.name!r}: {spec.description}")
    print(f"  {args.parallelism} on {args.machines} machines, "
          f"{args.iterations} iterations/run, {args.seeds} seed(s), "
          f"expected {spec.expected_failures(args.machines):.1f} "
          "failures per horizon")
    print(f"{'seed':>4} {'crashes':>7} {'recov':>5} {'lost':>5} "
          f"{'goodput':>12} {'final_loss':>12}  trace")
    goodputs = []
    for seed in range(args.seeds):
        trace = spec.sample(seed, args.machines,
                            horizon_iters=args.iterations)
        recorder = TraceRecorder() if args.telemetry else None
        run, batch, session = _chaos_run(
            trace, args.parallelism, args.machines, args.iterations,
            args.ckpt_interval, recorder=recorder,
        )
        if recorder is not None:
            session.telemetry.with_meta(
                scenario=spec.name, scenario_seed=seed,
            ).save(_telemetry_seed_path(args.telemetry, seed))
        goodput = run.goodput(batch)
        goodputs.append(goodput)
        lost = sum(r.lost_iterations for r in run.recoveries)
        trace = trace.with_meta(
            goodput=repr(goodput),
            final_loss=repr(run.losses[-1]),
            recoveries=len(run.recoveries),
            parallelism=args.parallelism,
            machines=args.machines,
            iterations=args.iterations,
            checkpoint_interval=args.ckpt_interval,
            batch_size=batch,
        )
        path = trace.save(out_dir / f"{spec.name}_seed{seed}.jsonl")
        print(f"{seed:>4} {len(trace.crashes):>7} "
              f"{len(run.recoveries):>5} {lost:>5} "
              f"{goodput:>12.4f} {run.losses[-1]:>12.6f}  {path}")
    mean = sum(goodputs) / len(goodputs)
    print(f"\nmean goodput over {args.seeds} seed(s): "
          f"{mean:.4f} samples/s")
    print(f"replay any run bitwise:  python -m repro.cli chaos "
          f"--trace {out_dir / (spec.name + '_seed0.jsonl')}")
    if args.telemetry:
        print(f"telemetry per seed:      "
              f"{_telemetry_seed_path(args.telemetry, 0)} ...")
    return 0


def _format_event(e: TelemetryEvent) -> str:
    """One human-readable line per event (the --follow stream format)."""
    sim = f"{e.sim:12.4f}" if e.sim is not None else " " * 12
    if e.kind == "span":
        dur = e.sim_dur if e.sim_dur is not None else e.wall_dur
        return f"{sim} span    {e.name:<28} {dur:.6f}s"
    if e.kind in ("count", "gauge"):
        return f"{sim} {e.kind:<7} {e.name:<28} {e.value:g}"
    return f"{sim} instant {e.name}"


def _obs_follow(path: Path, idle_timeout: float) -> int:
    """Tail a live telemetry JSONL (a JsonlSink stream) until it idles."""
    import time as _time

    start = _time.monotonic()
    while not path.exists():
        if _time.monotonic() - start > idle_timeout:
            print(f"obs: {path} never appeared "
                  f"(waited {idle_timeout:g}s)", file=sys.stderr)
            return 2
        _time.sleep(0.1)
    try:
        return _obs_follow_loop(path, idle_timeout)
    except BrokenPipeError:
        return 0  # reader (e.g. `| head`) went away; not an error


def _obs_follow_loop(path: Path, idle_timeout: float) -> int:
    import json
    import time as _time

    header = None
    last_data = _time.monotonic()
    with path.open("rb") as fh:
        buf = b""
        while True:
            chunk = fh.readline()
            if chunk:
                buf += chunk
                if not buf.endswith(b"\n"):
                    continue  # partial line: wait for the writer's flush
                line, buf = buf.decode(), b""
                last_data = _time.monotonic()
                if header is None:
                    header = json.loads(line)
                    print(f"following {path} "
                          f"(source {header.get('source')!r}, "
                          f"v{header.get('version')})")
                    continue
                print(_format_event(TelemetryEvent.from_json(line)))
            else:
                if _time.monotonic() - last_data > idle_timeout:
                    break
                _time.sleep(0.1)
    print(f"obs: stream idle for {idle_timeout:g}s; stopped following")
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    """Summarize, export, or tail a telemetry JSONL stream."""
    path = Path(args.file)
    if args.follow:
        return _obs_follow(path, args.idle_timeout)
    try:
        trace = TelemetryTrace.load(path)
    except (OSError, ConfigurationError) as exc:
        print(f"obs: cannot read telemetry {args.file!r}: {exc}",
              file=sys.stderr)
        return 1
    exported = False
    if args.chrome:
        out = Path(args.chrome)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(to_chrome_trace(trace, timeline=args.timeline))
        print(f"wrote Chrome trace ({args.timeline} timeline) to {out} "
              f"-- load it at https://ui.perfetto.dev")
        exported = True
    if args.csv:
        text = telemetry_to_csv(trace)
        if args.csv == "-":
            sys.stdout.write(text)
        else:
            out = Path(args.csv)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(text)
            print(f"wrote per-iteration CSV to {out}")
        exported = True
    if not exported:
        print(summarize_telemetry(trace))
    return 0


def _serve_config(args: argparse.Namespace,
                  wal_path: Path) -> ServeConfig | None:
    """Geometry for a ServeServer: explicit for a fresh WAL, None (derive
    from the log) when resuming an existing one."""
    if wal_path.exists() and wal_path.stat().st_size > 0:
        return None
    return ServeConfig(
        num_machines=args.machines if args.machines else 5,
        devices_per_machine=args.devices if args.devices else 2,
        num_spares=args.spares,
        repair_ticks=demo_config().repair_ticks,
        snapshot_interval=demo_config().snapshot_interval,
    )


def _serve_replay(path: str) -> int:
    """Fold a serve WAL (file or segment directory) into state."""
    import json

    try:
        # read-only: plan recovery without renaming, truncating, or
        # opening a writer, so inspecting a live server's WAL is safe
        info = SegmentedWriteAheadLog.inspect(path)
        state = info.recover_state()
    except (OSError, ConfigurationError, LogIntegrityError) as exc:
        print(f"serve: cannot replay WAL {path!r}: {exc}",
              file=sys.stderr)
        return 1
    # full audit: every segment, including those a reopen leaves unverified
    for note in info.notes:
        print(f"serve: {note}", file=sys.stderr)
    for q in info.quarantined:
        print(f"serve: corrupt segment {q['segment']} at "
              f"{q['path']} ({q['reason']}; seqs "
              f"[{q['lost_first_seq']}..{q['lost_last_seq']}] "
              f"unusable, state_loss={q['state_loss']})",
              file=sys.stderr)
    print(f"replayed {len(info.events)} events from {path} "
          f"(read-only; snapshot anchor at seq "
          f"{info.anchor_base_seq}, {info.segment_count} "
          f"segment{'' if info.segment_count == 1 else 's'})")
    print(json.dumps(state.summary(), indent=2, sort_keys=True))
    return 0


def _serve_demo(args: argparse.Namespace) -> int:
    """Run (or crash-resume) the canonical three-tenant demo workload."""
    wal = Path(args.wal) if args.wal else Path("serve-demo.jsonl")
    try:
        server = ServeServer(wal, demo_config(), fsync=not args.no_fsync,
                             segment_bytes=args.segment_bytes)
    except (OSError, ConfigurationError) as exc:
        print(f"serve: cannot open WAL {str(wal)!r}: {exc}",
              file=sys.stderr)
        return 1
    with server:
        if server.recovered:
            unread = len(server.wal.unverified)
            print(f"recovered from {wal}: "
                  f"{len(server.wal.events)} events replayed "
                  f"(history seq {server.wal.last_seq}), "
                  f"resuming at round {server.state.round}"
                  + (f"; {unread} segment(s) behind the anchor not "
                     f"verified; `repro serve --replay` audits them"
                     if unread else ""))
        run_script(server, demo_traffic())
        state = server.state
        print(f"{'job':<14} {'tenant':<9} {'status':>9} {'iters':>5} "
              f"{'fails':>5} {'recov':>5} {'preempt':>7}")
        for job in state.jobs_with_status(*(
                "completed", "failed", "rejected", "shed")):
            print(f"{job['name']:<14} {job['tenant']:<9} "
                  f"{job['status']:>9} {job['iterations_done']:>5} "
                  f"{job['failures']:>5} {job['recoveries']:>5} "
                  f"{job['preemptions']:>7}")
        print(f"\n{server.wal.next_seq} WAL events, "
              f"{state.round} rounds, "
              f"fleet time {state.fleet_time:.1f} s, "
              f"goodput {state.goodput():.1f} samples/s")
    print(f"WAL: {wal}  (kill this process at any point and re-run "
          f"with the same --wal: recovery is replay)")
    return 0


def _serve_fleet_demo(args: argparse.Namespace) -> int:
    """Record a real fleet run's serve WAL and audit the replay."""
    path = Path(args.wal) if args.wal else Path("fleet-wal.jsonl")
    machines = args.machines if args.machines else 6
    devices = args.devices if args.devices else 4
    specs, failures = demo_fleet_specs(args.iterations)
    sim = FleetSimulator(specs, num_machines=machines,
                         devices_per_machine=devices,
                         num_spares=args.spares, failures=failures)
    # opened once the geometry is known good: a refused run writes no WAL
    sim.wal = WriteAheadLog(path, fsync=not args.no_fsync,
                            meta={"service": "repro.sim.fleet"})
    try:
        report = sim.run()
    finally:
        sim.wal.close()
    state = ServeState.replay(WriteAheadLog.load_events(path))
    mismatches = []
    if state.round != report.rounds:
        mismatches.append(
            f"rounds: wal {state.round} != fleet {report.rounds}")
    if state.fleet_time != report.makespan:
        mismatches.append(
            f"makespan: wal {state.fleet_time!r} != "
            f"fleet {report.makespan!r}")
    by_name = {j.name: j for j in report.jobs}
    for name, job in sorted(state.jobs.items()):
        fleet_job = by_name[name]
        if job["iterations_done"] != fleet_job.iterations:
            mismatches.append(
                f"{name}: wal iters {job['iterations_done']} != "
                f"fleet {fleet_job.iterations}")
        if job["status"] != fleet_job.state:
            mismatches.append(
                f"{name}: wal status {job['status']} != "
                f"fleet {fleet_job.state}")
    print(f"recorded {len(WriteAheadLog.load_events(path))} WAL events "
          f"from a real {machines}x{devices} fleet run to {path}")
    print(report.format_table())
    if mismatches:
        print("\nreplay audit: MISMATCH", file=sys.stderr)
        for line in mismatches:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"\nreplay audit: ServeState.replay(WAL) reproduces the "
          f"fleet accounting exactly ({len(state.jobs)} jobs, "
          f"round {state.round}, makespan {state.fleet_time:.2f} s)")
    return 0


def _serve_listen(args: argparse.Namespace) -> int:
    """Serve the NDJSON protocol over stdio or TCP against one WAL."""
    if not args.wal:
        print("serve: --stdio/--tcp need --wal FILE (the WAL is what "
              "makes a SIGKILL survivable)", file=sys.stderr)
        return 2
    wal = Path(args.wal)
    try:
        # a bad --spares is a usage error: its ConfigurationError
        # reaches main() and exits 2
        config = _serve_config(args, wal)
    except OSError as exc:
        print(f"serve: cannot open WAL {str(wal)!r}: {exc}",
              file=sys.stderr)
        return 1
    try:
        server = ServeServer(wal, config,
                             fsync=not args.no_fsync,
                             segment_bytes=args.segment_bytes)
    except (OSError, ConfigurationError) as exc:
        print(f"serve: cannot open WAL {str(wal)!r}: {exc}",
              file=sys.stderr)
        return 1
    with server:
        # SIGTERM = drain: in-flight clients get the shutting_down
        # envelope, the WAL is flushed + fsynced by close(), exit 0
        install_graceful_shutdown(server)
        if args.tcp is not None:
            def announce(port: int) -> None:
                # the crash-restart harness parses this line
                print(f"serve: listening on 127.0.0.1:{port} "
                      f"(wal {wal})", flush=True)
            try:
                serve_tcp(server, port=args.tcp,
                          ready_callback=announce)
            except OSError as exc:
                print(f"serve: cannot listen on 127.0.0.1:{args.tcp}: "
                      f"{exc}", file=sys.stderr)
                return 1
        else:
            serve_stdio(server)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """The crash-recoverable multi-tenant control plane (repro.serve)."""
    modes = [bool(args.demo), bool(args.drill), bool(args.stdio),
             args.tcp is not None, bool(args.replay),
             bool(args.fleet_demo), bool(args.netchaos)]
    if sum(modes) > 1:
        print("serve: pick one of --demo, --drill, --stdio, --tcp, "
              "--replay, --fleet-demo, --netchaos", file=sys.stderr)
        return 2
    if args.replay:
        return _serve_replay(args.replay)
    if args.netchaos:
        report = network_drill(segment_bytes=args.segment_bytes or 8192)
        print("network chaos drill: netchaos profiles x crash-restart "
              "x segment corruption, exactly-once audited per cell")
        print(report.format_table())
        return 0 if report.passed else 1
    if args.drill:
        report = control_plane_drill(kill_points=args.kill_points)
        print(f"control-plane crash drill: SIGKILL at "
              f"{len(report.results)} WAL offsets "
              f"(next line left out / torn mid-line / whole without "
              f"its newline, in turn; each WAL restarted twice)")
        print(report.format_table())
        return 0 if report.passed else 1
    if args.stdio or args.tcp is not None:
        return _serve_listen(args)
    if args.fleet_demo:
        return _serve_fleet_demo(args)
    return _serve_demo(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Swift reproduction experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list Table-2 workloads").set_defaults(
        fn=cmd_workloads
    )
    sub.add_parser("table3", help="logging space overhead").set_defaults(
        fn=cmd_table3
    )

    t5 = sub.add_parser("table5", help="end-to-end simulation study")
    t5.add_argument("--mtbf", type=float, default=17.0)
    t5.add_argument("--repeats", type=int, default=10)
    t5.add_argument("--seed", type=int, default=1)
    t5.set_defaults(fn=cmd_table5)

    f8 = sub.add_parser("fig8", help="macro-benchmark for one workload")
    f8.add_argument("workload", choices=sorted(_WORKLOAD_ALIASES))
    f8.add_argument("--scenario", default=None,
                    help="add an analytic goodput column under a named "
                         "repro.chaos scenario")
    f8.add_argument("--seeds", type=int, default=3,
                    help="scenario traces to average over")
    f8.set_defaults(fn=cmd_fig8)

    fleet = sub.add_parser(
        "fleet", help="multi-job scheduler demo on a shared cluster"
    )
    fleet.add_argument("--machines", type=int, default=6)
    fleet.add_argument("--devices", type=int, default=4)
    fleet.add_argument("--spares", type=int, default=1)
    fleet.add_argument("--iterations", type=int, default=30)
    fleet.add_argument("--scenario", default=None,
                       help="draw machine crashes from a named "
                            "repro.chaos scenario instead of the demo's "
                            "scripted two")
    fleet.add_argument("--scenario-seed", type=int, default=0)
    fleet.add_argument("--trace", default=None,
                       help="replay crashes from a saved FailureTrace "
                            "JSONL file")
    fleet.add_argument("--telemetry", default=None, metavar="FILE",
                       help="stream live telemetry JSONL to FILE "
                            "(tail it with: repro obs FILE --follow)")
    fleet.set_defaults(fn=cmd_fleet)

    chaos = sub.add_parser(
        "chaos",
        help="run or replay a named failure scenario on real engines",
    )
    chaos.add_argument("--scenario", default=None,
                       help="registered scenario name (see --list)")
    chaos.add_argument("--seeds", type=int, default=5,
                       help="number of independent seeded runs")
    chaos.add_argument("--iterations", type=int, default=60,
                       help="training iterations per run (the scenario "
                            "horizon maps onto them)")
    chaos.add_argument("--parallelism", choices=["dp", "pp"], default="dp")
    chaos.add_argument("--machines", type=int, default=4)
    chaos.add_argument("--ckpt-interval", type=int, default=20)
    chaos.add_argument("--out", default="traces",
                       help="directory for emitted trace JSONL files")
    chaos.add_argument("--trace", default=None,
                       help="replay a saved trace and verify its "
                            "recorded goodput bitwise")
    chaos.add_argument("--list", action="store_true",
                       help="list registered scenarios and exit")
    chaos.add_argument("--telemetry", default=None, metavar="FILE",
                       help="record per-phase telemetry; scenario runs "
                            "write one FILE per seed (_seedN suffix)")
    chaos.set_defaults(fn=cmd_chaos)

    obs = sub.add_parser(
        "obs", help="summarize, export, or tail a telemetry JSONL stream"
    )
    obs.add_argument("file", help="telemetry JSONL (from --telemetry, "
                                  "session.telemetry.save(), or a JsonlSink)")
    obs.add_argument("--chrome", default=None, metavar="OUT",
                     help="export Chrome trace-event JSON for Perfetto / "
                          "chrome://tracing")
    obs.add_argument("--timeline", choices=["wall", "sim"], default="wall",
                     help="clock driving the Chrome trace axis "
                          "(default: wall)")
    obs.add_argument("--csv", default=None, metavar="OUT",
                     help="export per-iteration CSV rows ('-' for stdout)")
    obs.add_argument("--follow", action="store_true",
                     help="tail a live stream (e.g. fleet --telemetry) "
                          "until it idles")
    obs.add_argument("--idle-timeout", type=float, default=5.0,
                     help="seconds of silence before --follow stops")
    obs.set_defaults(fn=cmd_obs)

    serve = sub.add_parser(
        "serve",
        help="crash-recoverable multi-tenant control plane (repro.serve)",
    )
    serve.add_argument("--wal", default=None, metavar="FILE",
                       help="write-ahead log path; an existing WAL is "
                            "resumed (crash recovery is replay)")
    serve.add_argument("--demo", action="store_true",
                       help="run the three-tenant demo workload to "
                            "completion (the default mode)")
    serve.add_argument("--drill", action="store_true",
                       help="SIGKILL the control plane at N WAL offsets "
                            "and prove zero acknowledged-job loss")
    serve.add_argument("--kill-points", type=int, default=5,
                       help="WAL cut points the drill exercises")
    serve.add_argument("--stdio", action="store_true",
                       help="serve the NDJSON protocol on stdin/stdout")
    serve.add_argument("--tcp", type=int, default=None, metavar="PORT",
                       help="serve the NDJSON protocol on TCP "
                            "(0 picks a free port)")
    serve.add_argument("--replay", default=None, metavar="WAL",
                       help="fold an existing WAL into state and print "
                            "its summary")
    serve.add_argument("--netchaos", action="store_true",
                       help="run the network-fault acceptance matrix "
                            "(drop/dup/reorder/truncate/partition x "
                            "crash-restart x segment corruption)")
    serve.add_argument("--segment-bytes", type=int, default=None,
                       metavar="N",
                       help="rotate the WAL into snapshot-anchored "
                            "segments of N bytes of events each "
                            "(recovery folds a bounded tail of the "
                            "log, not the history)")
    serve.add_argument("--fleet-demo", action="store_true",
                       help="run a real FleetSimulator, which logs its "
                            "decisions to a serve WAL, and audit that "
                            "replay reproduces its accounting")
    serve.add_argument("--machines", type=int, default=None,
                       help="cluster machines (default: 5, or 6 for "
                            "--fleet-demo)")
    serve.add_argument("--devices", type=int, default=None,
                       help="devices per machine (default: 2, or 4 for "
                            "--fleet-demo)")
    serve.add_argument("--spares", type=int, default=1)
    serve.add_argument("--iterations", type=int, default=30,
                       help="per-job iterations for --fleet-demo")
    serve.add_argument("--no-fsync", action="store_true",
                       help="skip fsync on WAL appends (tests/demos)")
    serve.set_defaults(fn=cmd_serve)

    plan = sub.add_parser(
        "plan",
        help="selective-logging group planner / goodput auto-planner",
    )
    plan.add_argument("--workload", choices=sorted(_WORKLOAD_ALIASES),
                      default="bert")
    plan.add_argument("--budget-gb", type=float, default=None,
                      help="selective-logging storage budget (required "
                           "without --optimize)")
    plan.add_argument("--ckpt-interval", type=int, default=100)
    plan.add_argument("--optimize", action="store_true",
                      help="search the (parallelism x recovery x "
                           "cadence) space for the best expected goodput "
                           "under --scenario")
    plan.add_argument("--scenario", default="steady_mtbf",
                      help="named repro.chaos scenario the search "
                           "optimizes for")
    plan.add_argument("--seeds", type=int, default=3,
                      help="paired scenario traces per candidate")
    plan.add_argument("--searcher", default="auto",
                      help="registered searcher name (auto = exhaustive "
                           "for small grids, anneal beyond)")
    plan.add_argument("--search-seed", type=int, default=0,
                      help="seed for the (deterministic) search")
    plan.add_argument("--top-k", type=int, default=5,
                      help="ranked candidates to report")
    plan.add_argument("--json", action="store_true",
                      help="emit canonical JSON instead of the table")
    plan.set_defaults(fn=cmd_plan)

    sched = sub.add_parser(
        "schedule",
        help="list, dump, or verify pipeline schedule programs",
    )
    sched.add_argument("--list", action="store_true",
                       help="registered schedule generators")
    sched.add_argument("--dump", metavar="NAME", default=None,
                       help="emit NAME's instruction program as JSONL")
    sched.add_argument("--verify", metavar="FILE", default=None,
                       help="statically verify a program JSONL file")
    sched.add_argument("-p", "--num-stages", type=int, default=4)
    sched.add_argument("-m", "--num-microbatches", type=int, default=8)
    sched.add_argument("--virtual-stages", type=int, default=0,
                       help="chunks per stage (0 = schedule default)")
    sched.add_argument("-o", "--output", default=None,
                       help="write the dump here instead of stdout")
    sched.set_defaults(fn=cmd_schedule)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigurationError as exc:
        # a usage error: one line and exit 2, never a traceback; data
        # problems are caught where they are read and exit 1
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout was a pipe whose reader quit (`repro serve ... | head`);
        # the conventional exit for a SIGPIPE'd writer, not a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    raise SystemExit(code)
