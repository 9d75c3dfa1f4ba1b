"""Command-line interface: ``python -m repro <command>``.

Nine subcommands cover the library's main entry points:

* ``run``      — timing simulation of a workload under a defense
* ``attack``   — an attack pattern against a defense (flip or not?)
* ``security`` — the Section 5 analytical attack-cost table
* ``trace``    — a traced simulation exported as Perfetto JSON plus a
  text timeline (see :mod:`repro.obs`)
* ``profile``  — cProfile one run (optionally traced) and dump pstats
* ``report``   — self-contained HTML dashboard from the sweep run
  ledger: per-worker timelines, cache hit-rates, throughput
  trajectories, cross-run drift findings (see :mod:`repro.obs`)
* ``checkpoint`` — deterministic checkpoint/restore for one run:
  persist cuts, resume from the deepest usable one, list a
  fingerprint's cuts, or verify the round-trip oracle (see
  :mod:`repro.state`)
* ``info``     — list available workloads, defenses, and attacks
* ``check``    — determinism linter, a DDR4 protocol-sanitizer smoke
  run, and the project-graph passes (snapshot coverage, oracle-pair
  completeness; see :mod:`repro.check`)
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.perf import records_for_windows, run_pair, run_workload
from repro.analysis.report import render_table
from repro.analysis.security import attack_iterations, duty_cycle
from repro.attacks import (
    AttackHarness,
    DoubleSidedAttack,
    HalfDoubleAttack,
    ManySidedAttack,
    SingleSidedAttack,
)
from repro.core import RRSConfig, RandomizedRowSwap
from repro.dram import DRAMConfig
from repro.mitigations import (
    BlockHammer,
    BlockHammerConfig,
    Graphene,
    IdealVictimRefresh,
    NoMitigation,
    TWiCe,
    TargetedRowRefresh,
)
from repro.utils.units import format_seconds
from repro.workloads import ALL_WORKLOADS, get_workload

DEFENSES = ("none", "rrs", "graphene", "twice", "trr", "ideal-vfm", "blockhammer")
ATTACKS = ("single", "double", "many", "half-double")


def _build_defense(name: str, scale: int, t_rh: int, rows: int):
    dram = DRAMConfig().scaled(scale)
    scaled_t_rh = max(12, t_rh // scale)
    if name == "none":
        return NoMitigation()
    if name == "rrs":
        return RandomizedRowSwap(
            RRSConfig.for_threshold(t_rh, DRAMConfig()).scaled(scale), dram
        )
    if name == "graphene":
        return Graphene(
            t_rh=scaled_t_rh,
            window_activations=dram.acts_per_refresh_window,
            rows_per_bank=rows,
        )
    if name == "twice":
        return TWiCe(t_rh=scaled_t_rh, window_ns=dram.refresh_window_ns, rows_per_bank=rows)
    if name == "trr":
        return TargetedRowRefresh(rows_per_bank=rows)
    if name == "ideal-vfm":
        return IdealVictimRefresh(t_rh=scaled_t_rh, rows_per_bank=rows)
    if name == "blockhammer":
        return BlockHammer(
            BlockHammerConfig(
                t_rh=scaled_t_rh,
                blacklist_threshold=max(2, 512 // scale),
                window_ns=dram.refresh_window_ns,
            )
        )
    raise ValueError(f"unknown defense {name!r}")


def _attack_defense(name: str, t_rh: int, rows: int):
    """Full-threshold defenses for the activation-level attack path."""
    if name == "none":
        return NoMitigation()
    if name == "rrs":
        t_rrs = max(2, t_rh // 6)
        dram = DRAMConfig(
            channels=1, banks_per_rank=1, rows_per_bank=rows, row_size_bytes=1024
        )
        return RandomizedRowSwap(
            RRSConfig(
                t_rh=t_rh,
                t_rrs=t_rrs,
                window_activations=1_300_000,
                rows_per_bank=rows,
                tracker_entries=1_300_000 // t_rrs,
                rit_capacity_tuples=2 * (1_300_000 // t_rrs),
            ),
            dram,
        )
    if name == "graphene":
        return Graphene(t_rh=t_rh, mitigation_threshold=t_rh // 4, rows_per_bank=rows)
    if name == "twice":
        return TWiCe(t_rh=t_rh, mitigation_threshold=t_rh // 4, rows_per_bank=rows)
    if name == "trr":
        return TargetedRowRefresh(rows_per_bank=rows)
    if name == "ideal-vfm":
        return IdealVictimRefresh(
            t_rh=t_rh, mitigation_threshold=t_rh // 4, rows_per_bank=rows
        )
    if name == "blockhammer":
        return BlockHammer(BlockHammerConfig(t_rh=t_rh, blacklist_threshold=t_rh // 8))
    raise ValueError(f"unknown defense {name!r}")


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _cmd_run(args) -> int:
    spec = get_workload(args.workload)
    scale = args.scale

    def factory():
        return _build_defense(args.defense, scale, args.t_rh, DRAMConfig().rows_per_bank)

    records = args.records or records_for_windows(spec, scale, max_records=80_000)
    result = run_pair(spec, factory, scale=scale, records_per_core=records)
    print(
        render_table(
            ["metric", "baseline", args.defense],
            [
                ["IPC", f"{result.baseline.ipc:.3f}", f"{result.defended.ipc:.3f}"],
                ["normalized", "1.0000", f"{result.normalized_performance:.4f}"],
                ["swaps", result.baseline.swaps, result.defended.swaps],
                [
                    "victim refreshes",
                    result.baseline.victim_refreshes,
                    result.defended.victim_refreshes,
                ],
                [
                    "throttle delay (us)",
                    0,
                    f"{result.defended.throttle_delay_ns / 1000:.1f}",
                ],
            ],
            title=f"{spec.name} under {args.defense} (epoch scale 1/{scale})",
        )
    )
    return 0


def _cmd_attack(args) -> int:
    rows = 128 * 1024
    attacks = {
        "single": SingleSidedAttack(10_000),
        "double": DoubleSidedAttack(10_000),
        "many": ManySidedAttack([10_000 + 4 * i for i in range(9)]),
        "half-double": HalfDoubleAttack(10_000, dose_interval=64),
    }
    attack = attacks[args.pattern]
    classic = args.pattern != "half-double"
    dram = DRAMConfig(
        channels=1, banks_per_rank=1, rows_per_bank=rows, row_size_bytes=1024
    )
    harness = AttackHarness(
        _attack_defense(args.defense, args.t_rh, rows),
        dram,
        t_rh=args.t_rh,
        distance2_coupling=0.0 if classic else 0.016,
        refresh_disturbs_neighbors=not classic,
    )
    result = harness.run(attack.rows(), max_activations=args.budget)
    verdict = "BIT FLIP" if result.succeeded else "no flips"
    print(
        f"{args.pattern} vs {args.defense} (T_RH={args.t_rh}): {verdict} "
        f"after {result.activations:,} ACTs "
        f"({result.swaps} swaps, {result.victim_refreshes} victim refreshes)"
    )
    if result.flips:
        print(f"  first flip: {result.flips[0]}")
    return 0 if not result.succeeded or args.defense == "none" else 1


def _cmd_security(args) -> int:
    rows = []
    for k in args.k:
        t_rrs = args.t_rh // k
        if t_rrs < 1:
            continue
        iterations = attack_iterations(t_rrs, t_rrs * k)
        rows.append(
            [
                f"{t_rrs} (k={k})",
                f"{duty_cycle(t_rrs):.3f}",
                f"{iterations:.2e}",
                format_seconds(iterations * 0.064),
            ]
        )
    print(
        render_table(
            ["T_RRS", "duty cycle", "AT_iter", "attack time"],
            rows,
            title=f"Adaptive-attack cost at T_RH={args.t_rh} (paper Eq. 3)",
        )
    )
    return 0


def _cmd_trace(args) -> int:
    # repro.obs is imported lazily: every other subcommand stays free
    # of the observability machinery.
    from repro.obs import (
        JsonlSink,
        Observability,
        RingSink,
        Tracer,
        parse_categories,
        render_timeline,
        validate_trace_file,
        write_trace,
    )

    spec = get_workload(args.workload)
    if args.jsonl:
        sink = JsonlSink(args.jsonl)
    else:
        sink = RingSink(args.buffer)
    tracer = Tracer(sink=sink, categories=parse_categories(args.categories))
    obs = Observability(tracer=tracer, export_extra=True)
    mitigation = _build_defense(
        args.defense, args.scale, args.t_rh, DRAMConfig().rows_per_bank
    )
    records = args.records or records_for_windows(spec, args.scale, max_records=80_000)
    metrics = run_workload(
        spec,
        mitigation,
        scale=args.scale,
        records_per_core=records,
        cores=args.cores,
        obs=obs,
    )

    events = tracer.events
    write_trace(
        args.out,
        events,
        metadata={
            "workload": spec.name,
            "mitigation": metrics.mitigation,
            "scale": args.scale,
            "cores": args.cores,
        },
    )
    validate_trace_file(args.out)
    obs.close()

    # Display filters narrow the printed timeline only; the trace file
    # written above always carries every captured event.
    shown = events
    if args.category:
        wanted = {name.strip() for name in args.category.split(",") if name.strip()}
        shown = [event for event in shown if event.category in wanted]
    if args.limit and len(shown) > args.limit:
        shown = shown[: args.limit]
    if len(shown) != len(events):
        print(f"timeline filtered to {len(shown)} of {len(events)} events")
    print(render_timeline(shown))
    print()
    print(
        f"run: IPC {metrics.ipc:.3f}, {metrics.swaps} swaps, "
        f"{metrics.sim_time_ns / 1000:.1f} us simulated"
    )
    dropped = f" ({tracer.dropped} dropped)" if tracer.dropped else ""
    print(f"wrote {args.out}: {len(events)} events{dropped}")
    if args.jsonl:
        print(f"event stream: {args.jsonl}")
    print("open the trace at https://ui.perfetto.dev or chrome://tracing")
    return 0


def _cmd_profile(args) -> int:
    """cProfile one simulation run; print hot functions, dump pstats."""
    import cProfile
    import pstats

    spec = get_workload(args.workload)
    mitigation = _build_defense(
        args.defense, args.scale, args.t_rh, DRAMConfig().rows_per_bank
    )
    records = args.records or records_for_windows(spec, args.scale, max_records=80_000)
    obs = None
    if args.trace:
        from repro.obs import Observability, RingSink, Tracer

        obs = Observability(tracer=Tracer(RingSink()), export_extra=False)

    profiler = cProfile.Profile()
    profiler.enable()
    metrics = run_workload(
        spec,
        mitigation,
        scale=args.scale,
        records_per_core=records,
        cores=args.cores,
        obs=obs,
    )
    profiler.disable()

    mode = "traced" if args.trace else "untraced"
    print(
        f"{spec.name} under {args.defense} ({mode}): "
        f"{metrics.accesses:,} requests, IPC {metrics.ipc:.3f}, "
        f"{metrics.swaps} swaps, {metrics.sim_time_ns / 1000:.1f} us simulated"
    )
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative")
    stats.print_stats(args.top)
    if args.out:
        stats.dump_stats(args.out)
        print(f"pstats dump: {args.out} (browse with `python -m pstats {args.out}`)")
    return 0


def _cmd_report(args) -> int:
    """Render the sweep-fleet dashboard from the run ledger."""
    # Lazy imports: every other subcommand stays free of the ledger
    # and dashboard machinery.
    from repro.obs.ledger import default_ledger_path, read_ledger, split_latest_run
    from repro.obs.regress import drift_report
    from repro.obs.reportgen import (
        load_bench_results,
        render_report,
        validate_report,
        write_report,
    )

    ledger_path = args.ledger or default_ledger_path()
    entries = read_ledger(ledger_path)
    history, fresh = split_latest_run(entries)
    drift = drift_report(
        history,
        fresh,
        warn_z=args.warn_z,
        error_z=args.error_z,
        min_history=args.min_history,
        path=str(ledger_path),
    )
    bench = load_bench_results(args.bench_dir)
    html = render_report(entries, drift=drift, bench=bench, title=args.title)
    validate_report(html)
    write_report(args.out, html)

    findings = drift["findings"]
    errors = sum(1 for f in findings if f["severity"] == "error")
    warns = sum(1 for f in findings if f["severity"] == "warn")
    print(
        f"report: {len(entries)} ledger entries ({ledger_path}), "
        f"{len(fresh)} in the newest run"
    )
    print(
        f"report: {len(findings)} drift finding(s) "
        f"({errors} error, {warns} warn)"
    )
    print(f"wrote {args.out} (self-contained; open in any browser)")
    if errors and args.strict:
        return 1
    return 0


CHECKPOINT_DEFENSES = ("none", "rrs", "blockhammer", "ideal-vfm")


def _checkpoint_spec(defense: str, scale: int, t_rh: int):
    """The :class:`MitigationSpec` for a checkpoint-capable defense.

    Only spec-expressible kinds are offered: the fingerprint must match
    what sweep points compute, so warm-start checkpoints are shared
    between this verb and :class:`~repro.exec.runner.SweepRunner`.
    """
    from repro.exec.specs import MitigationSpec

    dram = DRAMConfig().scaled(scale)
    scaled_t_rh = max(12, t_rh // scale)
    if defense == "none":
        return MitigationSpec.none()
    if defense == "rrs":
        return MitigationSpec.rrs(t_rh=t_rh, scale=scale)
    if defense == "blockhammer":
        return MitigationSpec.blockhammer(
            t_rh=scaled_t_rh,
            blacklist_threshold=max(2, 512 // scale),
            window_ns=dram.refresh_window_ns,
        )
    if defense == "ideal-vfm":
        return MitigationSpec.ideal_vfm(t_rh=scaled_t_rh)
    raise ValueError(f"unknown checkpoint defense {defense!r}")


def _cmd_checkpoint(args) -> int:
    """Checkpointed runs: persist cuts, resume, list, verify round-trips."""
    # Lazy imports: the state machinery stays off every other verb.
    from pathlib import Path

    from repro.exec.runner import (
        SweepPoint,
        _checkpoint_every,
        _resume_usable,
        execute_point,
    )
    from repro.state.checkpoint import (
        CheckpointSession,
        CheckpointStore,
        SimCheckpoint,
        default_checkpoint_dir,
    )

    point = SweepPoint(
        workload=args.workload,
        mitigation=_checkpoint_spec(args.defense, args.scale, args.t_rh),
        scale=args.scale,
        records_per_core=args.records or None,
        cores=args.cores,
        seed=args.seed,
        t_rh=float(args.t_rh),
    ).resolved()
    fingerprint = point.checkpoint_fingerprint()
    total = point.records_per_core * point.cores
    root = Path(args.store) if args.store else default_checkpoint_dir()
    store = CheckpointStore(root=root)
    label = f"{point.workload}/{args.defense}@1/{point.scale} seed {point.seed}"

    if args.list:
        cuts = store.cuts(fingerprint)
        print(f"{label}: fingerprint {fingerprint}")
        print(f"store: {store.root}")
        if not cuts:
            print("no persisted cuts")
        for cut in cuts:
            usable = _resume_usable(
                store.get(fingerprint, cut), point.records_per_core
            ) if store.get(fingerprint, cut) else False
            marker = "" if usable else "  (not usable for this length)"
            print(f"  cut {cut:>8} / {total}{marker}")
        return 0

    if args.verify:
        cut = args.cut if args.cut >= 0 else total // 2
        captured = {}
        session = CheckpointSession(
            fingerprint=fingerprint,
            cuts=(cut,),
            sink=lambda ckpt: captured.setdefault(ckpt.serviced, ckpt),
        )
        baseline = execute_point(point, checkpoints=session)
        if cut not in captured:
            print(f"FAIL: cut {cut} was never reached (total {total})")
            return 1
        # Round-trip through strict JSON: exactly what a fresh process
        # would load from disk.
        reloaded = SimCheckpoint.loads(captured[cut].dumps())
        resumed = execute_point(
            point,
            checkpoints=CheckpointSession(
                fingerprint=fingerprint, resume=reloaded
            ),
        )
        if resumed == baseline:
            print(
                f"PASS: {label} resumed from cut {cut}/{total}; "
                "SimMetrics bit-identical"
            )
            return 0
        print(f"FAIL: {label} diverged after resume from cut {cut}/{total}")
        for field_name in ("ipc", "accesses", "swaps", "victim_refreshes",
                          "sim_time_ns", "bit_flips"):
            base = getattr(baseline, field_name, "")
            got = getattr(resumed, field_name, "")
            if base != got:
                print(f"  {field_name}: expected {base!r}, got {got!r}")
        return 1

    resume = None
    if not args.fresh:
        resume = store.latest(
            fingerprint,
            max_serviced=total,
            accept=lambda ckpt: _resume_usable(ckpt, point.records_per_core),
        )
    session = CheckpointSession(
        fingerprint=fingerprint,
        every=args.every or _checkpoint_every(total),
        sink=store.put,
        resume=resume,
        meta={
            "records_per_core": point.records_per_core,
            "workload": point.workload,
            "mitigation": point.mitigation.kind,
        },
    )
    metrics = execute_point(point, checkpoints=session)
    origin = "from scratch"
    if session.resumed_from:
        origin = f"resumed from cut {session.resumed_from}"
    print(
        f"{label}: {metrics.accesses:,} requests ({origin}), "
        f"IPC {metrics.ipc:.3f}, {metrics.swaps} swaps"
    )
    print(
        f"persisted {len(session.saved)} cut(s) "
        f"{session.saved or '[]'} -> {store.root}"
    )
    return 0


def _cmd_check(args) -> int:
    # Imported here so `repro run/attack` never pay for the analysis
    # machinery.
    from repro.check.cli import run_check

    return run_check(args)


def _cmd_info(args) -> int:
    print("defenses:", ", ".join(DEFENSES))
    print("attacks :", ", ".join(ATTACKS))
    print(f"workloads ({len(ALL_WORKLOADS)}):")
    for spec in ALL_WORKLOADS:
        tag = " [mix]" if spec.is_mix else ""
        print(
            f"  {spec.name:<14} {spec.suite:<10} footprint {spec.footprint_gb:>5.2f}GB"
            f"  MPKI {spec.mpki:>6.2f}  ACT-800+ rows {spec.act800_rows}{tag}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Randomized Row-Swap reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a workload under a defense")
    run.add_argument("--workload", default="bzip2")
    run.add_argument("--defense", choices=DEFENSES, default="rrs")
    run.add_argument("--scale", type=int, default=32)
    run.add_argument("--t-rh", type=int, default=4800)
    run.add_argument("--records", type=int, default=0)
    run.set_defaults(func=_cmd_run)

    attack = sub.add_parser("attack", help="run an attack against a defense")
    attack.add_argument("--pattern", choices=ATTACKS, default="half-double")
    attack.add_argument("--defense", choices=DEFENSES, default="rrs")
    attack.add_argument("--t-rh", type=int, default=480)
    attack.add_argument("--budget", type=int, default=400_000)
    attack.set_defaults(func=_cmd_attack)

    security = sub.add_parser("security", help="analytical attack-cost table")
    security.add_argument("--t-rh", type=int, default=4800)
    security.add_argument("--k", type=int, nargs="+", default=[5, 6, 7])
    security.set_defaults(func=_cmd_security)

    trace = sub.add_parser(
        "trace",
        help="traced simulation: Perfetto JSON + text timeline",
        description=(
            "Run one workload under a defense with the repro.obs event "
            "tracer installed, write a Chrome/Perfetto trace-event JSON "
            "file, and print a text timeline summary. Tracing is "
            "read-only: the simulated metrics are bit-identical to an "
            "untraced run."
        ),
    )
    trace.add_argument("workload", help="workload name (see `repro info`)")
    trace.add_argument(
        "defense", nargs="?", choices=DEFENSES, default="rrs",
        help="defense to trace (default: rrs)",
    )
    trace.add_argument("--scale", type=int, default=128)
    trace.add_argument("--t-rh", type=int, default=4800)
    trace.add_argument(
        "--records", type=int, default=8000,
        help="records per core (0 = size for full refresh windows)",
    )
    trace.add_argument("--cores", type=int, default=2)
    trace.add_argument(
        "--out", default="trace.json", help="Perfetto trace output path"
    )
    trace.add_argument(
        "--categories", default="all",
        help="comma list of trace categories (default: all)",
    )
    trace.add_argument(
        "--buffer", type=int, default=1_000_000,
        help="ring-buffer capacity in events",
    )
    trace.add_argument(
        "--jsonl", default="",
        help="also stream raw events to this JSONL file",
    )
    trace.add_argument(
        "--category", default="",
        help="show only these categories in the printed timeline "
        "(comma list; the trace file keeps everything)",
    )
    trace.add_argument(
        "--limit", type=int, default=0,
        help="cap the printed timeline at the first N events "
        "(0 = no cap; the trace file keeps everything)",
    )
    trace.set_defaults(func=_cmd_trace)

    profile = sub.add_parser(
        "profile",
        help="cProfile a simulation run; print hot functions",
        description=(
            "Run one workload under a defense with cProfile attached, "
            "print the top functions by cumulative time, and dump the "
            "full pstats data for interactive digging (python -m "
            "pstats / snakeviz). --trace profiles the tracer-enabled "
            "hot path instead of the plain one."
        ),
    )
    profile.add_argument("workload", help="workload name (see `repro info`)")
    profile.add_argument(
        "defense", nargs="?", choices=DEFENSES, default="rrs",
        help="defense to profile (default: rrs)",
    )
    profile.add_argument("--scale", type=int, default=32)
    profile.add_argument("--t-rh", type=int, default=4800)
    profile.add_argument(
        "--records", type=int, default=0,
        help="records per core (0 = size for full refresh windows)",
    )
    profile.add_argument("--cores", type=int, default=8)
    profile.add_argument(
        "--top", type=int, default=25,
        help="how many functions to print (cumulative-time order)",
    )
    profile.add_argument(
        "--out", default="profile.pstats",
        help="pstats dump path ('' disables the dump)",
    )
    profile.add_argument(
        "--trace", action="store_true",
        help="profile with the repro.obs tracer enabled (ring sink)",
    )
    profile.set_defaults(func=_cmd_profile)

    report = sub.add_parser(
        "report",
        help="HTML dashboard from the sweep run ledger",
        description=(
            "Render a self-contained single-file HTML dashboard from "
            "the sweep run ledger: per-worker timelines of the newest "
            "run, cache hit-rate tiles, throughput trajectories from "
            "the committed bench results, and cross-run drift findings "
            "(newest run vs ledger history, robust z-scores). The data "
            "payload is embedded as JSON inside the page — no external "
            "assets, suitable for CI artifacts."
        ),
    )
    report.add_argument(
        "--ledger", default="",
        help="ledger JSONL path (default: $REPRO_LEDGER or the cache dir)",
    )
    report.add_argument(
        "--out", default="report.html", help="dashboard output path"
    )
    report.add_argument(
        "--bench-dir", default="benchmarks/results",
        help="directory holding BENCH_*.json trajectory files",
    )
    report.add_argument(
        "--title", default="repro sweep-fleet dashboard",
        help="dashboard page title",
    )
    report.add_argument("--warn-z", type=float, default=3.5)
    report.add_argument("--error-z", type=float, default=6.0)
    report.add_argument(
        "--min-history", type=int, default=4,
        help="distinct historical runs required before judging drift",
    )
    report.add_argument(
        "--strict", action="store_true",
        help="exit non-zero when an error-tier drift finding is present",
    )
    report.set_defaults(func=_cmd_report)

    checkpoint = sub.add_parser(
        "checkpoint",
        help="checkpointed runs: persist cuts, resume, verify round-trips",
        description=(
            "Run one workload/defense point with deterministic "
            "checkpointing (repro.state). Default: persist cuts to the "
            "checkpoint store, resuming from the deepest usable cut if "
            "one exists. --list shows persisted cuts for the point's "
            "fingerprint; --verify runs the round-trip oracle (snapshot "
            "at a cut, restore through strict JSON, run to completion, "
            "compare SimMetrics bit-for-bit). Fingerprints match the "
            "sweep runner's, so cuts persisted here warm-start sweeps "
            "run with REPRO_CHECKPOINT=1 and vice versa."
        ),
    )
    checkpoint.add_argument("workload", help="workload name (see `repro info`)")
    checkpoint.add_argument(
        "defense", nargs="?", choices=CHECKPOINT_DEFENSES, default="rrs",
        help="spec-expressible defense (default: rrs)",
    )
    checkpoint.add_argument("--scale", type=int, default=32)
    checkpoint.add_argument("--t-rh", type=int, default=4800)
    checkpoint.add_argument(
        "--records", type=int, default=0,
        help="records per core (0 = size for full refresh windows)",
    )
    checkpoint.add_argument("--cores", type=int, default=8)
    checkpoint.add_argument("--seed", type=int, default=0)
    checkpoint.add_argument(
        "--every", type=int, default=0,
        help="cut interval in serviced requests "
        "(0 = block-aligned quarters of the run)",
    )
    checkpoint.add_argument(
        "--store", default="",
        help="checkpoint store root (default: <cache-dir>/checkpoints)",
    )
    checkpoint.add_argument(
        "--fresh", action="store_true",
        help="ignore persisted cuts; always run from scratch",
    )
    checkpoint.add_argument(
        "--list", action="store_true",
        help="list persisted cuts for this point's fingerprint and exit",
    )
    checkpoint.add_argument(
        "--verify", action="store_true",
        help="round-trip oracle: cut, restore via JSON, compare metrics",
    )
    checkpoint.add_argument(
        "--cut", type=int, default=-1,
        help="serviced count to cut at for --verify (-1 = run midpoint)",
    )
    checkpoint.set_defaults(func=_cmd_checkpoint)

    info = sub.add_parser("info", help="list workloads/defenses/attacks")
    info.set_defaults(func=_cmd_info)

    check = sub.add_parser(
        "check",
        help="determinism linter + protocol sanitizer + flow",
        description=(
            "Run the repro.check analysis pillars. With no pillar flag "
            "all three run: the determinism linter (--rules), a "
            "protocol-sanitizer smoke simulation (--sanitize), and the "
            "project-graph passes (--flow: snapshot coverage, oracle "
            "pairs). Exit code is non-zero only when an error-tier "
            "finding is reported."
        ),
    )
    check.add_argument(
        "--rules", action="store_true", help="run only the determinism linter"
    )
    check.add_argument(
        "--sanitize", action="store_true", help="run only the sanitizer smoke"
    )
    check.add_argument(
        "--flow", action="store_true",
        help="run only the snapshot-coverage and oracle-pair passes",
    )
    check.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="findings report format",
    )
    check.add_argument(
        "--paths", nargs="*", default=[], metavar="FILE",
        help="lint these files instead of the simulation packages",
    )
    check.add_argument(
        "--root", default=None,
        help="repository root (default: walk up from cwd to pyproject.toml)",
    )
    check.set_defaults(func=_cmd_check)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
