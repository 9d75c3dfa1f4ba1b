"""Simulator throughput microbenchmark: the repo's perf trajectory.

Runs a 4-point Figure-6-style sweep (baseline-quality RRS runs over
four representative workloads) five ways — serial, parallel
(``REPRO_JOBS`` or up to 4 workers), cold cache, warm cache, and with
the ``repro.obs`` tracer fully enabled — and records simulated
requests/second for each into
``benchmarks/results/BENCH_throughput.json`` so successive PRs can
track the hot path. The serial number doubles as the tracer-disabled
baseline: the obs hooks are always compiled in, so any drift there is
the cost of the inlined ``is None`` checks (budget: < 5%).

Invariants asserted here (the exec layer's contract):

* parallel results are **bit-identical** to serial ones;
* a warm-cache rerun performs **zero** simulation calls;
* full tracing (every category, ring sink) leaves results
  **bit-identical** to the untraced run;
* on a >=4-core machine, ``--jobs 4`` is >= 2x faster than serial.

``REPRO_BENCH_RECORDS`` overrides the per-core request budget (the
``make bench-smoke`` target uses a tiny one). ``REPRO_BENCH_REPS``
(default 5) sets how many times the serial and traced phases repeat —
interleaved, so both sample the same machine-load epochs; each reports
its **minimum** wall time, the standard noise-robust estimator
(anything above the minimum is scheduler interference, never the code
being faster). The cache phases stay single-shot because the cache
state itself is what they measure.

Each run also appends one entry per phase to the ``history`` array kept
inside ``BENCH_throughput.json`` — phase, ``records_per_core``, git
SHA, date, and the phase's throughput — so the file doubles as the
repo's perf trajectory and ``scripts/bench_gate.py`` can compare
like with like.
"""

from __future__ import annotations

import json
import os
import subprocess
import tempfile
import time
from pathlib import Path

from benchmarks.conftest import RESULTS_DIR, full_runs_requested

from repro.analysis.perf import run_workload
from repro.analysis.report import render_table
from repro.exec import MitigationSpec, ResultCache, SweepPoint, SweepRunner
from repro.obs import Observability, RingSink, Tracer
from repro.workloads.suites import get_workload

SCALE = 32
WORKLOADS = ("hmmer", "bzip2", "stream", "gromacs")


def _records_per_core() -> int:
    override = os.environ.get("REPRO_BENCH_RECORDS", "")
    if override:
        return max(200, int(override))
    return 30_000 if full_runs_requested() else 6_000


def _points(records: int):
    return [
        SweepPoint(
            workload=name,
            mitigation=MitigationSpec.rrs(t_rh=4800, scale=SCALE),
            scale=SCALE,
            records_per_core=records,
        )
        for name in WORKLOADS
    ]


def _parallel_jobs() -> int:
    configured = os.environ.get("REPRO_JOBS", "")
    if configured:
        return max(1, int(configured))
    return min(4, os.cpu_count() or 1)


def _reps() -> int:
    return max(1, int(os.environ.get("REPRO_BENCH_REPS", "5")))


def _timed_run(runner: SweepRunner, points) -> tuple:
    started = time.perf_counter()
    results = runner.run(points)
    return results, time.perf_counter() - started


def _timed_traced_run(points) -> tuple:
    """Serial sweep with full tracing on: every category, ring sink.

    Mirrors ``execute_point`` but injects a fresh ``Observability`` per
    point (observers are single-install). The slowdown vs the plain
    serial run is the *enabled* tracer cost; the serial run itself is
    the disabled baseline since the hooks are always compiled in.
    """
    results = []
    trace_events = 0
    started = time.perf_counter()
    for point in points:
        obs = Observability(tracer=Tracer(RingSink()), export_extra=False)
        resolved = point.resolved()
        results.append(
            run_workload(
                get_workload(resolved.workload),
                resolved.mitigation.build(),
                scale=resolved.scale,
                records_per_core=resolved.records_per_core,
                cores=resolved.cores,
                seed=resolved.seed,
                with_faults=resolved.with_faults,
                t_rh=resolved.t_rh,
                obs=obs,
            )
        )
        trace_events += obs.tracer.emitted
    return results, time.perf_counter() - started, trace_events


def _git_sha() -> str:
    """HEAD's short SHA, suffixed ``-dirty`` when the measured tree has
    uncommitted changes (the entry then describes a change on top of
    that commit, not the commit itself)."""
    def git(*args):
        return subprocess.run(
            ["git", *args],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )

    try:
        probe = git("rev-parse", "--short", "HEAD")
        status = git("status", "--porcelain", "--untracked-files=no")
    except OSError:
        return "unknown"
    sha = probe.stdout.strip()
    if probe.returncode != 0 or not sha:
        return "unknown"
    return sha + "-dirty" if status.stdout.strip() else sha


def _measure():
    records = _records_per_core()
    points = _points(records)
    jobs = _parallel_jobs()
    reps = _reps()

    # Serial and traced repetitions alternate so both minima sample the
    # same machine-load epochs: their ratio (the headline tracer
    # slowdown) then cancels slow-drifting background noise instead of
    # comparing a quiet phase against a busy one.
    serial_s = traced_s = float("inf")
    serial_results = traced_results = None
    trace_events = 0
    for _ in range(reps):
        serial_results, elapsed = _timed_run(
            SweepRunner(jobs=1, use_cache=False), points
        )
        serial_s = min(serial_s, elapsed)
        traced_results, elapsed, trace_events = _timed_traced_run(points)
        traced_s = min(traced_s, elapsed)

    if jobs > 1:
        parallel_results, parallel_s = _timed_run(
            SweepRunner(jobs=jobs, use_cache=False), points
        )
    else:
        # jobs=1 short-circuits to the exact in-process serial path
        # (SweepRunner._execute), so there is no parallel phase to
        # time: re-measuring serial and logging it as "parallel 1.0x"
        # would plot a fake flat speedup line in the history. Record
        # the phase as skipped (null rate/speedup) instead.
        parallel_results, parallel_s = None, None

    # The cold/warm phases exercise a private throwaway cache, so they
    # stay meaningful even under a global REPRO_CACHE=0 opt-out.
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        cold_runner = SweepRunner(
            jobs=1, cache=ResultCache(root=Path(tmp), enabled=True)
        )
        cold_results, cold_s = _timed_run(cold_runner, points)
        warm_runner = SweepRunner(
            jobs=1, cache=ResultCache(root=Path(tmp), enabled=True)
        )
        warm_results, warm_s = _timed_run(warm_runner, points)

    requests = sum(metrics.accesses for metrics in serial_results)
    serial_dicts = [metrics.to_dict() for metrics in serial_results]
    if parallel_results is not None:
        assert [m.to_dict() for m in parallel_results] == serial_dicts, (
            "parallel sweep results must be bit-identical to serial"
        )
    assert [m.to_dict() for m in cold_results] == serial_dicts
    assert [m.to_dict() for m in warm_results] == serial_dicts, (
        "cache round-trip must reproduce results bit-identically"
    )
    assert warm_runner.stats.simulated == 0, "warm cache reran a simulation"
    assert warm_runner.cache.hits == len(points)
    assert cold_runner.stats.simulated == len(points)
    assert [m.to_dict() for m in traced_results] == serial_dicts, (
        "tracing must never perturb simulation results"
    )
    assert trace_events > 0, "the tracer never fired"

    return {
        "sweep_points": len(points),
        "records_per_core": records,
        "requests_simulated": requests,
        "jobs": jobs,
        "cpus": os.cpu_count() or 1,
        "timing_reps": reps,
        "serial_seconds": serial_s,
        "parallel_seconds": parallel_s,
        "parallel_phase": "pool" if jobs > 1 else "skipped",
        "cold_cache_seconds": cold_s,
        "warm_cache_seconds": warm_s,
        "serial_requests_per_second": requests / serial_s,
        "parallel_requests_per_second": (
            requests / parallel_s if parallel_s else None
        ),
        "parallel_speedup": serial_s / parallel_s if parallel_s else None,
        "warm_cache_speedup": serial_s / warm_s,
        "warm_cache_simulations": warm_runner.stats.simulated,
        "warm_cache_hits": warm_runner.cache.hits,
        # repro.obs: the serial row IS the tracer-disabled baseline
        # (hooks always compiled in); budget for the inlined is-None
        # checks is < 5% drift across PRs.
        "tracer_disabled_requests_per_second": requests / serial_s,
        "tracer_enabled_seconds": traced_s,
        "tracer_enabled_requests_per_second": requests / traced_s,
        "tracer_enabled_slowdown": traced_s / serial_s,
        "trace_events_recorded": trace_events,
    }


# History phases: (phase, requests/second field, extra fields kept).
HISTORY_PHASES = (
    ("serial", "serial_requests_per_second", ()),
    ("parallel", "parallel_requests_per_second", ("jobs",)),
    ("traced", "tracer_enabled_requests_per_second", ("tracer_enabled_slowdown",)),
)


def _append_history(data: dict, target: Path) -> None:
    """Fold this run into the ``history`` trajectory the results file
    carries across runs: prior entries are preserved, and each phase's
    throughput is appended as one entry keyed by (``phase``,
    ``records_per_core``) — the run length of the sweep — plus SHA and
    date, so a regression
    can be bisected from the file alone and only like is compared with
    like. A skipped phase (no parallel pool) records nothing."""
    history = []
    if target.exists():
        try:
            history = json.loads(target.read_text()).get("history", [])
        except (json.JSONDecodeError, AttributeError):
            history = []
    stamp = {"git_sha": _git_sha(), "date": time.strftime("%Y-%m-%d")}
    for phase, field, extras in HISTORY_PHASES:
        rate = data[field]
        if rate is None:
            continue
        entry = {
            "phase": phase,
            "records_per_core": data["records_per_core"],
            "requests_per_second": rate,
            **stamp,
        }
        entry.update((name, data[name]) for name in extras)
        history.append(entry)
    data["history"] = history


def test_throughput(benchmark, record_result):
    data = benchmark.pedantic(_measure, rounds=1, iterations=1)

    RESULTS_DIR.mkdir(exist_ok=True)
    target = RESULTS_DIR / "BENCH_throughput.json"
    _append_history(data, target)
    target.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")

    if data["parallel_phase"] == "pool":
        parallel_row = [
            f"parallel (jobs={data['jobs']})",
            f"{data['parallel_seconds']:.2f}s",
            f"{data['parallel_requests_per_second']:,.0f} req/s",
        ]
    else:
        parallel_row = ["parallel", "skipped", "needs jobs > 1"]
    rows = [
        ["serial", f"{data['serial_seconds']:.2f}s",
         f"{data['serial_requests_per_second']:,.0f} req/s"],
        parallel_row,
        ["cold cache", f"{data['cold_cache_seconds']:.2f}s", ""],
        ["warm cache", f"{data['warm_cache_seconds']:.2f}s",
         f"{data['warm_cache_speedup']:,.0f}x vs serial, 0 sims"],
        ["traced (all categories)", f"{data['tracer_enabled_seconds']:.2f}s",
         f"{data['tracer_enabled_requests_per_second']:,.0f} req/s "
         f"({data['tracer_enabled_slowdown']:.2f}x serial, "
         f"{data['trace_events_recorded']:,} events)"],
    ]
    record_result(
        "bench_throughput",
        render_table(
            ["Mode", "Wall clock", "Throughput"],
            rows,
            title=(
                f"Sweep throughput: {data['sweep_points']} points, "
                f"{data['requests_simulated']:,} requests "
                f"({data['cpus']} CPUs)"
            ),
        ),
    )

    # Warm cache must be dramatically faster than simulating.
    assert data["warm_cache_seconds"] < data["serial_seconds"]
    # The >=2x parallel-speedup bar applies where the hardware offers
    # the parallelism (the acceptance criterion's 4-core runner).
    if data["cpus"] >= 4 and data["jobs"] >= 4:
        assert data["parallel_speedup"] >= 2.0, (
            f"expected >=2x parallel speedup, got {data['parallel_speedup']:.2f}x"
        )
