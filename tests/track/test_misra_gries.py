"""Misra-Gries tracker: Figure 3 semantics and Invariant 1."""

from collections import Counter

import pytest

from repro.track.misra_gries import MisraGriesTracker
from repro.utils.rng import DeterministicRng


def test_figure3_worked_example():
    """Replays the paper's Figure 3 walk-through on a 3-entry tracker."""
    tracker = MisraGriesTracker(entries=3)
    # Bring the tracker to the figure's initial state:
    # Row-A:6, Row-X:3, Row-Z:9, spill-counter:2.
    for _ in range(6):
        tracker.observe("A")
    for _ in range(3):
        tracker.observe("X")
    for _ in range(9):
        tracker.observe("Z")
    tracker.spill = 2

    # (1) Row-A arrives: present -> 6 becomes 7.
    assert tracker.observe("A") == 7
    # (2) Row-B arrives: absent, min(3) > spill(2) -> spill increments.
    assert tracker.observe("B") == 0
    assert tracker.spill == 3
    assert "B" not in tracker
    # (3) Row-C arrives: absent, min(3) == spill(3) -> Row-X replaced,
    # Row-C installed with count spill+1 = 4.
    assert tracker.observe("C") == 4
    assert "X" not in tracker
    assert tracker.estimate("C") == 4


def test_sized_for_matches_paper():
    tracker = MisraGriesTracker.sized_for(1_360_000, 800)
    assert tracker.entries == 1700


def test_estimates_never_undercount():
    """Invariant 1's substance: estimate >= true count for tracked rows,
    and any row with true count > spill is guaranteed tracked."""
    rng = DeterministicRng(42)
    tracker = MisraGriesTracker(entries=16)
    truth = Counter()
    rows = list(range(50))
    for _ in range(4000):
        row = rows[rng.randint(0, len(rows))]
        truth[row] += 1
        tracker.observe(row)
    for row in tracker.tracked_rows():
        assert tracker.estimate(row) >= truth[row] - tracker.spill
    for row, count in truth.items():
        if count > tracker.spill:
            assert row in tracker, f"hot row {row} (count {count}) lost"
            assert tracker.estimate(row) >= count


def test_overcount_bounded_by_spill():
    rng = DeterministicRng(7)
    tracker = MisraGriesTracker(entries=8)
    truth = Counter()
    for _ in range(2000):
        row = rng.randint(0, 40)
        truth[row] += 1
        tracker.observe(row)
    for row in tracker.tracked_rows():
        assert tracker.estimate(row) <= truth[row] + tracker.spill


def test_guarantee_at_paper_scale_small():
    """Scaled-down Invariant 1: N = W/T entries never miss a T-hot row."""
    window, threshold = 8000, 50
    tracker = MisraGriesTracker.sized_for(window, threshold)
    rng = DeterministicRng(3)
    truth = Counter()
    hot_rows = [1000, 2000, 3000]
    for i in range(window):
        if i % 40 < 3:
            row = hot_rows[i % 3]
        else:
            row = rng.randint(0, 5000)
        truth[row] += 1
        tracker.observe(row)
    for row, count in truth.items():
        if count >= threshold:
            assert tracker.estimate(row) >= threshold


def test_spill_bound():
    """spill <= W / (entries + 1), the Misra-Gries bound."""
    tracker = MisraGriesTracker(entries=10)
    rng = DeterministicRng(9)
    total = 3000
    for _ in range(total):
        tracker.observe(rng.randint(0, 10_000))
    assert tracker.spill <= total // (tracker.entries + 1) + 1


def test_reset_clears_state():
    tracker = MisraGriesTracker(entries=4)
    for row in (1, 2, 3, 1):
        tracker.observe(row)
    tracker.reset()
    assert len(tracker) == 0
    assert tracker.spill == 0
    assert tracker.estimate(1) == 0


def test_counts_increment_one_by_one_when_tracked():
    """Equality-triggered mitigation relies on tracked counters passing
    through every integer."""
    tracker = MisraGriesTracker(entries=4)
    seen = []
    for _ in range(10):
        seen.append(tracker.observe(42))
    assert seen == list(range(1, 11))


def test_invalid_entry_count():
    with pytest.raises(ValueError):
        MisraGriesTracker(entries=0)
    with pytest.raises(ValueError):
        MisraGriesTracker.sized_for(100, 0)
