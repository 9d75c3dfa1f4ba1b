"""Property-based tests of the Misra-Gries trackers (Invariant 1), and
of the compiled loop's tracker against ``ArrayMisraGries``."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import block_kernel
from repro.track.array_state import ArrayMisraGries
from repro.track.cat import CATConfig
from repro.track.cat_tracker import CATMisraGriesTracker
from repro.track.misra_gries import MisraGriesTracker

streams = st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=400)
entry_counts = st.integers(min_value=1, max_value=12)


@given(stream=streams, entries=entry_counts)
@settings(max_examples=120, deadline=None)
def test_reference_tracker_never_loses_a_hot_row(stream, entries):
    """Any row with more activations than the spill counter is tracked
    with an estimate at least its true count — the tracking guarantee
    RRS's security (Invariant 1) rests on."""
    tracker = MisraGriesTracker(entries=entries)
    truth = Counter()
    for row in stream:
        truth[row] += 1
        tracker.observe(row)
    for row, count in truth.items():
        if count > tracker.spill:
            assert row in tracker
            assert tracker.estimate(row) >= count


@given(stream=streams, entries=entry_counts)
@settings(max_examples=120, deadline=None)
def test_reference_tracker_overcount_bounded(stream, entries):
    """Estimates exceed truth by at most the spill counter."""
    tracker = MisraGriesTracker(entries=entries)
    truth = Counter()
    for row in stream:
        truth[row] += 1
        tracker.observe(row)
    for row in tracker.tracked_rows():
        assert tracker.estimate(row) <= truth[row] + tracker.spill


@given(stream=streams, entries=entry_counts)
@settings(max_examples=120, deadline=None)
def test_reference_tracker_spill_bound(stream, entries):
    """spill <= total/(entries+1): the Misra-Gries frequency bound."""
    tracker = MisraGriesTracker(entries=entries)
    for row in stream:
        tracker.observe(row)
    assert tracker.spill <= len(stream) // (entries + 1) + 1


@given(stream=streams, entries=entry_counts)
@settings(max_examples=120, deadline=None)
def test_tracker_size_never_exceeds_entries(stream, entries):
    tracker = MisraGriesTracker(entries=entries)
    for row in stream:
        tracker.observe(row)
        assert len(tracker) <= entries


@given(stream=streams)
@settings(max_examples=60, deadline=None)
def test_cat_tracker_matches_reference_spill_and_size(stream):
    """The CAT-backed tracker implements the same algorithm: identical
    spill counter and occupancy for any stream (tie-breaking of evicted
    minimum entries may differ; the bound properties may not)."""
    entries = 6
    reference = MisraGriesTracker(entries=entries)
    cat = CATMisraGriesTracker(
        entries=entries, cat_config=CATConfig(sets=4, demand_ways=2, extra_ways=6)
    )
    for row in stream:
        reference.observe(row)
        cat.observe(row)
    assert cat.spill == reference.spill
    assert len(cat) == len(reference)


@given(stream=streams)
@settings(max_examples=60, deadline=None)
def test_cat_tracker_never_loses_a_hot_row(stream):
    entries = 6
    tracker = CATMisraGriesTracker(
        entries=entries, cat_config=CATConfig(sets=4, demand_ways=2, extra_ways=6)
    )
    truth = Counter()
    for row in stream:
        truth[row] += 1
        tracker.observe(row)
    for row, count in truth.items():
        if count > tracker.spill:
            assert row in tracker
            assert tracker.estimate(row) >= count


@given(
    entries=st.integers(min_value=1, max_value=6),
    stream=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=200),
    save_at=st.integers(min_value=0, max_value=200),
    restore_at=st.integers(min_value=0, max_value=200),
    reset_at=st.integers(min_value=0, max_value=200),
    journal=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=150, deadline=None)
def test_compiled_tracker_matches_array_tracker_step_by_step(
    entries, stream, save_at, restore_at, reset_at, journal
):
    """The compiled loop's tracker (block_loop.c) and ArrayMisraGries
    fed the same stream agree on every estimate and every full state,
    through spills, lowest-slot evictions among tied minimum counts, a
    rewind to an earlier snapshot and a window reset. The Python copy
    the loop keeps in step through the install journal holds exactly
    the tracked rows."""
    lib = block_kernel.load()
    if lib is None:
        pytest.skip("compiled block loop unavailable")
    oracle = ArrayMisraGries(entries)
    follower = ArrayMisraGries(entries)
    capacity = block_kernel.JOURNAL_CAPACITY
    block_kernel.JOURNAL_CAPACITY = journal
    try:
        compiled = block_kernel.HotRowTrackers(lib, [None, (follower, 3)])
    finally:
        block_kernel.JOURNAL_CAPACITY = capacity
    compiled.load(1)
    saved = oracle.snapshot_state()
    for step, row in enumerate(stream):
        if step == save_at:
            saved = oracle.snapshot_state()
        if step == restore_at:
            oracle.restore_state(saved)
            follower.restore_state(saved)
            compiled.load(1)
        if step == reset_at:
            oracle.reset()
            follower.reset()
            compiled.load(1)
        assert compiled.observe(1, row) == oracle.observe(row)
        assert compiled.snapshot(1) == oracle.snapshot_state()
        if step % 3 == 0:
            compiled.follow(1)
            assert follower.tracked_rows() == oracle.tracked_rows()
    compiled.store(1)
    assert follower.snapshot_state() == oracle.snapshot_state()
