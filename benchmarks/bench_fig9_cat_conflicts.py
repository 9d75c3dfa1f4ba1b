"""Figure 9: installs required to cause a conflict in the CAT.

Monte Carlo for 1-3 extra ways (as the paper simulates 1-4), then the
MIRAGE continued-squaring projection anchored at the last measured
point for the remaining ways up to 6 — where the paper lands at ~1e30
installs, i.e. conflict-free for any practical lifetime.
"""

from repro.analysis.buckets import (
    cat_installs_until_conflict,
    mirage_installs_until_conflict,
)
from repro.analysis.report import render_table

SETS = 64
DEMAND = 14
MEASURED_EXTRA = (0, 1, 2, 3)
PROJECTED_EXTRA = (4, 5, 6)


def _measure():
    measured = {}
    for extra in MEASURED_EXTRA:
        measured[extra] = cat_installs_until_conflict(
            sets=SETS,
            demand_ways=DEMAND,
            extra_ways=extra,
            trials=8,
            max_installs=3_000_000,
            seed=7,
        )
    return measured


def test_fig9_cat_conflicts(benchmark, record_result):
    measured = benchmark.pedantic(_measure, rounds=1, iterations=1)
    anchor_extra = MEASURED_EXTRA[-1]
    anchor = measured[anchor_extra]
    series = {}
    for extra in MEASURED_EXTRA:
        series[extra] = (measured[extra], "Monte Carlo")
    for extra in PROJECTED_EXTRA:
        series[extra] = (
            mirage_installs_until_conflict(
                extra, anchor_extra=anchor_extra, anchor_installs=anchor
            ),
            "squaring projection",
        )
    rows = [
        [extra, f"{value:.2e}", source]
        for extra, (value, source) in sorted(series.items())
    ]
    years_at_paper_rate = series[6][0] * 10e-6 / (365.25 * 86400)
    rows.append(
        ["", f"E=6 at 1 install/10us: {years_at_paper_rate:.1e} years", ""]
    )
    text = render_table(
        ["Extra ways", "Installs to conflict", "Source"],
        rows,
        title=f"Figure 9: CAT conflict distance ({SETS} sets, {DEMAND} demand ways)",
    )
    record_result("fig9_cat_conflicts", text)

    # Monotone, super-linear growth in the measured region.
    assert measured[1] > measured[0]
    assert measured[2] > 5 * measured[1]
    assert measured[3] > 5 * measured[2]
    # Projection reaches "conflict-free for the machine's lifetime":
    # the paper quotes 1e30 installs / ~1e18 years at E=6.
    assert series[6][0] > 1e20
    assert years_at_paper_rate > 1e6
