"""Per-mitigation activation-path throughput: tracker in C vs per-activation.

The compiled loop runs RRS's and Graphene's Misra-Gries trackers in C
and calls Python only at a swap or refresh (``hot_row_tracker`` /
``on_hot_row``); every other mitigation gets one ``on_activation`` call
per activation. Overriding ``hot_row_tracker`` on an instance to return
None puts RRS and Graphene on that per-activation hook too. Both paths
must produce bit-identical ``SimMetrics``; this bench measures what the
C tracker is *worth* per mitigation on an attack-heavy stream (hmmer
at the bench scale drives ~70% of requests into an activation) and
records activations/second for both paths into
``benchmarks/results/BENCH_mitigation.json`` (``batched_*`` keys: the
production path; ``scalar_*`` keys: per-activation). The key names
predate the tracker hand-off; ``scripts/bench_gate.py`` and
``repro.obs.reportgen`` read them.

Methodology mirrors ``bench_throughput``: production and
per-activation runs alternate inside the rep loop so both minima
sample the same machine-load epochs, and each path reports its min-of-N
wall time. ``REPRO_BENCH_RECORDS`` / ``REPRO_BENCH_REPS`` override the
budgets. The file carries a ``history`` array (git SHA, date,
per-mitigation headline numbers) so the activation-path trajectory can
be bisected from the results file alone, and ``scripts/bench_gate.py``
gates the aggregate against its recorded baseline.

Expectations encoded here: RRS and Graphene gain from their C
trackers (2.71x and 2.87x on a 2-vCPU host at 6,000 records per core,
min of 5); TRR, PARA and BlockHammer take the same path in both
columns and run at parity. The assertion is therefore *no mitigation regresses
meaningfully*, not that every one speeds up.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from pathlib import Path

from benchmarks.conftest import RESULTS_DIR, full_runs_requested

from repro.analysis.perf import run_workload
from repro.analysis.report import render_table
from repro.core.config import RRSConfig
from repro.core.rrs import RandomizedRowSwap
from repro.dram.config import DRAMConfig
from repro.mitigations.blockhammer import BlockHammer, BlockHammerConfig
from repro.mitigations.graphene import Graphene
from repro.mitigations.para import PARA
from repro.mitigations.trr import TargetedRowRefresh
from repro.workloads.suites import get_workload

SCALE = 32
WORKLOAD = "hmmer"
T_RH = 4800


def _records_per_core() -> int:
    override = os.environ.get("REPRO_BENCH_RECORDS", "")
    if override:
        return max(200, int(override))
    return 30_000 if full_runs_requested() else 6_000


def _reps() -> int:
    return max(1, int(os.environ.get("REPRO_BENCH_REPS", "5")))


def _factories():
    """Fresh-instance builders, one per mitigation under test.

    Same constructions the Figure 6 / Figure 11 harnesses use
    (``repro.cli._build_defense``), pinned here so the bench keys stay
    stable across CLI refactors.
    """
    dram = DRAMConfig().scaled(SCALE)
    scaled_t_rh = max(12, T_RH // SCALE)
    return {
        "rrs": lambda: RandomizedRowSwap(
            RRSConfig.for_threshold(T_RH, DRAMConfig()).scaled(SCALE), dram
        ),
        "graphene": lambda: Graphene(
            t_rh=scaled_t_rh,
            window_activations=dram.acts_per_refresh_window,
            rows_per_bank=dram.rows_per_bank,
        ),
        "trr": lambda: TargetedRowRefresh(rows_per_bank=dram.rows_per_bank),
        "para": lambda: PARA(rows_per_bank=dram.rows_per_bank),
        "blockhammer": lambda: BlockHammer(
            BlockHammerConfig(
                t_rh=scaled_t_rh,
                blacklist_threshold=max(2, 512 // SCALE),
                window_ns=dram.refresh_window_ns,
            )
        ),
    }


def _timed_run(factory, records: int, batched: bool) -> tuple:
    mitigation = factory()
    if not batched:
        # on_activation for every activation
        mitigation.hot_row_tracker = lambda bank_key: None
    started = time.perf_counter()
    metrics = run_workload(
        get_workload(WORKLOAD),
        mitigation,
        scale=SCALE,
        records_per_core=records,
        seed=0,
    )
    return metrics, time.perf_counter() - started


def _measure() -> dict:
    records = _records_per_core()
    reps = _reps()
    results = {}
    for name, factory in _factories().items():
        batched_s = scalar_s = float("inf")
        batched_metrics = scalar_metrics = None
        for _ in range(reps):
            batched_metrics, elapsed = _timed_run(factory, records, batched=True)
            batched_s = min(batched_s, elapsed)
            scalar_metrics, elapsed = _timed_run(factory, records, batched=False)
            scalar_s = min(scalar_s, elapsed)
        assert batched_metrics.to_dict() == scalar_metrics.to_dict(), (
            f"{name}: production and per-activation paths diverged"
        )
        activations = batched_metrics.activations
        assert activations > 0, f"{name}: attack stream produced no activations"
        results[name] = {
            "batched_seconds": batched_s,
            "scalar_seconds": scalar_s,
            "activations": activations,
            "accesses": batched_metrics.accesses,
            "batched_activations_per_second": activations / batched_s,
            "scalar_activations_per_second": activations / scalar_s,
            "batched_speedup": scalar_s / batched_s,
        }
    return {
        "workload": WORKLOAD,
        "scale": SCALE,
        "t_rh": T_RH,
        "records_per_core": records,
        "timing_reps": reps,
        "mitigations": results,
    }


def _git_sha() -> str:
    try:
        probe = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except OSError:
        return "unknown"
    sha = probe.stdout.strip()
    return sha if probe.returncode == 0 and sha else "unknown"


def _append_history(data: dict, target: Path) -> None:
    """Fold this run into the results file's cross-run trajectory."""
    history = []
    if target.exists():
        try:
            history = json.loads(target.read_text()).get("history", [])
        except (json.JSONDecodeError, AttributeError):
            history = []
    entry = {
        "git_sha": _git_sha(),
        "date": time.strftime("%Y-%m-%d"),
        "records_per_core": data["records_per_core"],
    }
    for name, row in data["mitigations"].items():
        entry[f"{name}_batched_activations_per_second"] = row[
            "batched_activations_per_second"
        ]
        entry[f"{name}_batched_speedup"] = row["batched_speedup"]
    history.append(entry)
    data["history"] = history


def test_mitigation_throughput(benchmark, record_result):
    data = benchmark.pedantic(_measure, rounds=1, iterations=1)

    RESULTS_DIR.mkdir(exist_ok=True)
    target = RESULTS_DIR / "BENCH_mitigation.json"
    _append_history(data, target)
    target.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")

    rows = []
    for name, row in data["mitigations"].items():
        rows.append(
            [
                name,
                f"{row['batched_activations_per_second']:,.0f} act/s",
                f"{row['scalar_activations_per_second']:,.0f} act/s",
                f"{row['batched_speedup']:.2f}x",
            ]
        )
    record_result(
        "bench_mitigation",
        render_table(
            ["Mitigation", "Compiled", "Per-activation", "Speedup"],
            rows,
            title=(
                f"Activation-path throughput: {data['workload']} @ scale "
                f"{data['scale']}, {data['records_per_core']:,} records/core "
                f"(min of {data['timing_reps']} interleaved)"
            ),
        ),
    )

    # The production path must never cost meaningfully more than the
    # per-activation hook. 0.75 leaves room for machine noise on the
    # mitigations that take the same path in both columns; genuine
    # regressions show up far below it.
    for name, row in data["mitigations"].items():
        assert row["batched_speedup"] >= 0.75, (
            f"{name}: production path is {1 / row['batched_speedup']:.2f}x "
            "slower than the per-activation hook"
        )
