"""Figure 3: the Misra-Gries tracker worked example.

Replays the paper's three-step walk-through (Row-A increment, Row-B
spill, Row-C replace) on a 3-entry tracker and prints the state after
each event, then benchmarks the reference and array-state trackers'
throughput at the paper's scale (1700 entries, hot-plus-noise stream).
"""

import numpy as np
import pytest

from repro.analysis.report import render_table
from repro.track.array_state import ArrayMisraGries
from repro.track.misra_gries import MisraGriesTracker
from repro.utils.rng import DeterministicRng


def _figure3_replay():
    tracker = MisraGriesTracker(entries=3)
    for _ in range(6):
        tracker.observe("Row-A")
    for _ in range(3):
        tracker.observe("Row-X")
    for _ in range(9):
        tracker.observe("Row-Z")
    tracker.spill = 2
    steps = [("initial", dict(tracker._counts), tracker.spill)]
    for row in ("Row-A", "Row-B", "Row-C"):
        tracker.observe(row)
        steps.append((f"after {row}", dict(tracker._counts), tracker.spill))
    return steps


def test_fig3_worked_example(benchmark, record_result):
    steps = benchmark.pedantic(_figure3_replay, rounds=1, iterations=1)
    rows = [
        [label, ", ".join(f"{k}:{v}" for k, v in sorted(state.items())), spill]
        for label, state, spill in steps
    ]
    text = render_table(
        ["Step", "Tracker entries", "Spill"],
        rows,
        title="Figure 3: Misra-Gries tracker operation (3 entries)",
    )
    record_result("fig3_misra_gries", text)

    final = steps[-1][1]
    assert final == {"Row-A": 7, "Row-Z": 9, "Row-C": 4}
    assert steps[-1][2] == 3


@pytest.mark.parametrize("tracker_cls", [MisraGriesTracker, ArrayMisraGries])
def test_tracker_throughput_at_paper_scale(benchmark, tracker_cls):
    """Throughput of the 1700-entry tracker on a hot+noise ACT stream:
    the reference and the array-state tracker RRS and Graphene run. The
    50k noise rows overflow the table, so most of them spill or evict."""
    tracker = tracker_cls(entries=1700)
    rng = DeterministicRng(1).generator
    hot = np.repeat(np.arange(50), 900)
    noise = rng.integers(0, 128 * 1024, size=50_000)
    stream = np.concatenate([hot, noise])
    rng.shuffle(stream)
    stream = [int(x) for x in stream]

    def run():
        tracker.reset()
        for row in stream:
            tracker.observe(row)
        return tracker.spill

    benchmark(run)
