"""Figure 5: average number of row-swaps per 64ms window.

Runs each Table 3 workload's full-scale activation stream (one
representative bank, scaled by bank count) through the real RRS
mitigation at T_RRS = 800 and reports system-wide swaps per window.
The paper's reference points: hmmer/bzip2 near 1000 swaps, large-
footprint workloads (mcf, GAP) under 5, average across all 78
workloads ~68.
"""

from repro.analysis.charts import bar_chart
from repro.analysis.report import render_table
from repro.dram.config import DRAMConfig
from repro.workloads.suites import ALL_WORKLOADS, WORKLOAD_TABLE

from benchmarks._activation import swaps_per_window

# Paper Figure 5 reads (log scale, approximate).
PAPER_REFERENCE = {"hmmer": 1000, "bzip2": 1000, "mcf": 5}


def _measure_all():
    config = DRAMConfig()
    return {spec.name: swaps_per_window(spec, config)[0] for spec in WORKLOAD_TABLE}


def test_fig5_swaps_per_window(benchmark, record_result):
    measured = benchmark.pedantic(_measure_all, rounds=1, iterations=1)
    rows = [
        [spec.name, spec.act800_rows, measured[spec.name]]
        for spec in WORKLOAD_TABLE
    ]
    # Suite means (the paper's right-hand bars): unmeasured members of
    # a suite have no ACT-800+ rows, hence zero swaps.
    suites = sorted({spec.suite for spec in ALL_WORKLOADS if not spec.is_mix})
    for suite in suites:
        members = [w for w in ALL_WORKLOADS if w.suite == suite]
        total = sum(measured.get(w.name, 0) for w in members)
        rows.append([f"MEAN {suite}", "", f"{total / len(members):.1f}"])
    # The other 50 workloads have no ACT-800+ rows, hence no swaps: the
    # suite-wide mean divides by the full 78-workload population.
    quiet = len(ALL_WORKLOADS) - len(WORKLOAD_TABLE)
    mean_all = sum(measured.values()) / (len(measured) + quiet)
    rows.append(["MEAN (all 78)", "", f"{mean_all:.1f} (paper: 68)"])
    text = render_table(
        ["Workload", "Rows ACT-800+", "Swaps per 64ms (measured)"],
        rows,
        title="Figure 5: row-swaps per 64ms window (T_RRS=800)",
    )
    chart = bar_chart(
        [spec.name for spec in WORKLOAD_TABLE],
        [measured[spec.name] for spec in WORKLOAD_TABLE],
        log=True,
        width=48,
    )
    record_result("fig5_rowswaps", text + "\n\n" + chart)

    # Shape checks against the paper's reading.
    assert 500 <= measured["hmmer"] <= 3000
    assert 500 <= measured["bzip2"] <= 3000
    assert measured["mcf"] <= 64
    # Ordering: swap counts track the ACT-800+ hotness ordering.
    assert measured["hmmer"] > measured["ferret"] > measured["mcf"]
    # Average over all 78: paper reports 68 (~34 per channel).
    assert 30 <= mean_all <= 200
