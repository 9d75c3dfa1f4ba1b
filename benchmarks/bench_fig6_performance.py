"""Figure 6: performance of RRS normalized to the no-defense baseline.

Timing simulation at a 1/32-scale epoch (thresholds, structure sizes
and swap latency co-scaled per DESIGN.md §5). The paper's results:
0.4% average slowdown over 78 workloads, worst cases ~5% (bzip2, gcc,
xz_17), near-zero for low-swap workloads.

Default: the most swap-active workloads plus a quiet sample (the other
70 workloads swap rarely or never, contributing ~0 slowdown beyond the
RIT lookup), written to ``fig6_performance.txt``. Set REPRO_FULL=1 to
run all 28 Table 3 workloads into ``fig6_performance_full.txt``.
"""

from benchmarks.conftest import full_runs_requested

from repro.analysis.perf import WorkloadResult, records_for_windows
from repro.analysis.report import render_table
from repro.exec import MitigationSpec, SweepPoint, SweepRunner
from repro.utils.stats import geomean
from repro.workloads.suites import ALL_WORKLOADS, WORKLOAD_TABLE, get_workload

SCALE = 32
DEFAULT_WORKLOADS = (
    "hmmer",
    "bzip2",
    "h264",
    "calculix",
    "gcc",
    "zeusmp",
    "astar",
    "sphinx",
    "xz_17",
    "stream",
    "gromacs",
    "povray",
)

# Paper Figure 6 reference points (normalized performance).
PAPER_POINTS = {"bzip2": 0.95, "gcc": 0.95, "hmmer": 0.99, "gromacs": 1.00}


def _workload_names():
    if full_runs_requested():
        return [spec.name for spec in WORKLOAD_TABLE] + ["gromacs", "povray"]
    return list(DEFAULT_WORKLOADS)


def _measure():
    """Baseline + RRS for every workload, fanned out as one sweep.

    The whole figure goes through the SweepRunner at once: all points
    run in parallel under ``REPRO_JOBS``, and reruns are served from the
    content-addressed result cache.
    """
    names = list(dict.fromkeys(_workload_names()))
    points = []
    for name in names:
        spec = get_workload(name)
        records = records_for_windows(spec, SCALE, max_records=110_000)
        for mitigation in (
            MitigationSpec.none(),
            MitigationSpec.rrs(t_rh=4800, scale=SCALE),
        ):
            points.append(
                SweepPoint(
                    workload=name,
                    mitigation=mitigation,
                    scale=SCALE,
                    records_per_core=records,
                )
            )
    metrics = SweepRunner().run(points, label="fig6")
    return {
        name: WorkloadResult(
            spec=get_workload(name),
            baseline=metrics[2 * i],
            defended=metrics[2 * i + 1],
            scale=SCALE,
        )
        for i, name in enumerate(names)
    }


def test_fig6_normalized_performance(benchmark, record_result):
    results = benchmark.pedantic(_measure, rounds=1, iterations=1)
    rows = [
        [
            name,
            f"{r.normalized_performance:.4f}",
            f"{r.slowdown_percent:.2f}%",
            f"{r.swaps_per_window:.0f}",
        ]
        for name, r in results.items()
    ]
    norms = [r.normalized_performance for r in results.values()]
    measured_mean = geomean(norms)
    # Population average over 78: unmeasured workloads have no swaps
    # and pay only the RIT lookup; estimate them with the geomean of
    # the measured zero-swap workloads. Individual values wobble a few
    # percent either way (FCFS phase noise on short runs) but the noise
    # is symmetric, so the geomean isolates the real RIT cost.
    zero_swap = [
        r.normalized_performance
        for r in results.values()
        if r.defended.swaps == 0
    ]
    quiet_norm = geomean(zero_swap) if zero_swap else min(1.0, max(norms))
    population = norms + [quiet_norm] * (len(ALL_WORKLOADS) - len(norms))
    population_mean = geomean(population)
    rows.append(["GEOMEAN (measured)", f"{measured_mean:.4f}", "", ""])
    rows.append(
        [
            "GEOMEAN (78, quiet extrapolated)",
            f"{population_mean:.4f}",
            f"{(1 - population_mean) * 100:.2f}% (paper: 0.4%)",
            "",
        ]
    )
    text = render_table(
        ["Workload", "Normalized perf", "Slowdown", "Swaps/window"],
        rows,
        title=f"Figure 6: RRS performance normalized to baseline (scale 1/{SCALE})",
    )
    # The full population has its own result file, so a full run never
    # overwrites the default figure.
    record_result(
        "fig6_performance_full" if full_runs_requested() else "fig6_performance",
        text,
    )

    # Shape assertions against the paper.
    assert all(n > 0.88 for n in norms)  # worst case ~7.6% in the paper
    assert results["gromacs"].normalized_performance > 0.98
    assert results["bzip2"].slowdown_percent > results["gromacs"].slowdown_percent
    assert (1 - population_mean) * 100 < 2.0  # "negligible slowdown"
