"""CAT-backed Misra-Gries tracker (§6.4): functional equivalence."""

from collections import Counter

import pytest

from repro.track.cat import CATConfig
from repro.track.cat_tracker import CATMisraGriesTracker
from repro.track.misra_gries import MisraGriesTracker
from repro.utils.rng import DeterministicRng


def _small_tracker(entries=16):
    return CATMisraGriesTracker(
        entries=entries, cat_config=CATConfig(sets=8, demand_ways=2, extra_ways=6)
    )


def test_tracked_increment_semantics():
    tracker = _small_tracker()
    for expected in range(1, 6):
        assert tracker.observe(7) == expected
    assert tracker.estimate(7) == 5


def test_spill_and_replacement_semantics():
    tracker = _small_tracker(entries=2)
    tracker.observe(1)
    tracker.observe(2)
    # Table full; new row, spill(0) < min(1): spill increments.
    assert tracker.observe(3) == 0
    assert tracker.spill == 1
    # Now spill == min: a minimum entry is replaced, estimate spill+1.
    assert tracker.observe(4) == 2
    assert 4 in tracker
    assert len(tracker) == 2


def test_never_undercounts_like_reference():
    rng = DeterministicRng(11)
    cat_tracker = _small_tracker(entries=12)
    truth = Counter()
    for _ in range(3000):
        row = rng.randint(0, 60)
        truth[row] += 1
        cat_tracker.observe(row)
    for row, count in truth.items():
        if count > cat_tracker.spill:
            assert row in cat_tracker
            assert cat_tracker.estimate(row) >= count


def test_spill_matches_reference_tracker():
    """Same stream -> same spill counter as the reference (the spill
    depends only on the miss/min sequence, not tie-breaking)."""
    rng = DeterministicRng(5)
    stream = [rng.randint(0, 30) for _ in range(2000)]
    reference = MisraGriesTracker(entries=8)
    cat_tracker = _small_tracker(entries=8)
    for row in stream:
        reference.observe(row)
        cat_tracker.observe(row)
    assert cat_tracker.spill == reference.spill
    assert len(cat_tracker) == len(reference)


def test_reset():
    tracker = _small_tracker()
    for row in range(10):
        tracker.observe(row)
    tracker.reset()
    assert len(tracker) == 0
    assert tracker.spill == 0
    assert tracker.estimate(1) == 0


def test_paper_scale_geometry_fits():
    tracker = CATMisraGriesTracker(entries=1700)
    assert tracker.cat.config.sets == 64
    assert tracker.cat.config.ways == 20
    # Fill to capacity: all 1700 entries must install conflict-free.
    for row in range(1700):
        tracker.observe(row)
    assert len(tracker) == 1700


def test_oversized_entry_count_rejected():
    with pytest.raises(ValueError):
        CATMisraGriesTracker(
            entries=1000, cat_config=CATConfig(sets=4, demand_ways=2, extra_ways=2)
        )


# ----------------------------------------------------------------------
# Shadow state: the SetMin registers must follow the set contents.
# ----------------------------------------------------------------------
class TestObserveBlockShadowSync:
    def test_set_min_registers_match_set_contents(self):
        """After heavy traffic (spills + evictions through _global_min)
        every SetMin register equals a fresh recompute of its set."""
        rng = DeterministicRng(11, "cat-setmin").generator
        tracker = _small_tracker()
        for row in rng.integers(0, 80, size=2000):
            tracker.observe(int(row))
        assert tracker.spill > 0  # the minimum search actually ran
        config = tracker.cat.config
        for table in range(config.tables):
            for set_index in range(config.sets):
                stored = tracker.cat._sets[table][set_index]
                expected = min(stored.values()) if stored else None
                assert tracker._set_min[table][set_index] == expected
