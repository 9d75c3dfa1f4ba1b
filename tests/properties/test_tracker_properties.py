"""Property-based tests of the Misra-Gries trackers (Invariant 1), and
of the compiled loop's tracker against ``ArrayMisraGries``."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import block_kernel
from repro.track.array_state import ArrayMisraGries
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


def _compiled(lib, trackers):
    if lib is None:
        pytest.skip("compiled block loop unavailable")
    return block_kernel.HotRowTrackers(lib, trackers)


def _follow_step_by_step(entries, stream, save_at, restore_at, reset_at, probes):
    """Feed ``stream`` one row at a time to ArrayMisraGries and to the
    compiled tracker of bank 1, rewinding both to a snapshot at
    ``restore_at`` and resetting them at ``reset_at``; compare the
    threshold hits and full states after every step, and the membership
    of every row of ``probes`` at every step in ``probes``'s keys."""
    lib = block_kernel.load()
    oracle = ArrayMisraGries(entries)
    follower = ArrayMisraGries(entries)
    compiled = _compiled(lib, [None, (follower, 3)])
    contains = compiled.contains(1)
    one = np.zeros(1, np.int64)
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
        one[0] = row
        estimate = oracle.observe(row)
        hot = lib.rk_tracker_stream(compiled._table, 1, one.ctypes.data, 0, 1) == 0
        assert hot == (estimate != 0 and estimate % 3 == 0)
        assert compiled.snapshot(1) == oracle.snapshot_state()
        for probe in probes.get(step, ()):
            assert bool(contains(probe)) == (probe in oracle)
    compiled.store(1)
    assert follower.snapshot_state() == oracle.snapshot_state()


def _follow_stream(entries, threshold, stream, start):
    """``rk_tracker_stream`` from ``start`` stops exactly where
    ``observe`` lands an estimate on a non-zero multiple of the
    threshold, and leaves the tracker as ``observe`` does."""
    lib = block_kernel.load()
    tracker = ArrayMisraGries(entries)
    compiled = _compiled(lib, [(tracker, threshold)])
    start = min(start, len(stream))
    oracle = ArrayMisraGries(entries)
    expected = []
    for index in range(start, len(stream)):
        estimate = oracle.observe(stream[index])
        if estimate and estimate % threshold == 0:
            expected.append(index)
    compiled.load(0)
    rows = np.array(stream, np.int64)
    hot = []
    index = lib.rk_tracker_stream(compiled._table, 0, rows.ctypes.data, start, len(rows))
    while index < len(rows):
        hot.append(index)
        index = lib.rk_tracker_stream(
            compiled._table, 0, rows.ctypes.data, index + 1, len(rows)
        )
    assert index == len(rows)
    assert hot == expected
    assert compiled.snapshot(0) == oracle.snapshot_state()


def _wide_stream(seed, entries, spread, repeats):
    """About ``entries * spread`` distinct rows spread over int32's
    non-negative range, activated ``repeats`` times each on average
    (at most 2500 activations), skewed (weight 1/sqrt(rank)) so that
    counts tie, spread and climb while the table evicts."""
    rng = np.random.default_rng(seed)
    distinct = entries * spread
    length = min(distinct * repeats, 2500)
    pool = np.unique(rng.integers(0, 1 << 31, distinct))
    weights = 1.0 / np.sqrt(np.arange(1, len(pool) + 1))
    return rng.choice(pool, size=length, p=weights / weights.sum()).tolist()


# Up to 200 entries: multi-word bitmaps, and entry counts on and around
# the 64-slot word boundary.
wide_entries = st.sampled_from([63, 64, 65, 127, 128, 129]) | st.integers(1, 200)


@given(
    entries=st.integers(min_value=1, max_value=6),
    stream=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=200),
    save_at=st.integers(min_value=0, max_value=200),
    restore_at=st.integers(min_value=0, max_value=200),
    reset_at=st.integers(min_value=0, max_value=200),
)
@settings(max_examples=150, deadline=None)
def test_compiled_tracker_matches_array_tracker_step_by_step(
    entries, stream, save_at, restore_at, reset_at
):
    """The compiled loop's tracker (block_loop.c) and ArrayMisraGries
    fed the same stream one row at a time agree on every threshold
    hit, every full state and the membership of every row
    (``rk_tracker_contains`` against ``in``), through spills,
    lowest-slot evictions among tied minimum counts, a rewind to an
    earlier snapshot and a window reset."""
    probes = dict.fromkeys(range(len(stream)), range(11))
    _follow_step_by_step(entries, stream, save_at, restore_at, reset_at, probes)


@given(
    entries=wide_entries,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    spread=st.integers(min_value=1, max_value=4),
    repeats=st.integers(min_value=1, max_value=12),
    save_at=st.integers(min_value=0, max_value=2500),
    restore_at=st.integers(min_value=0, max_value=2500),
    reset_at=st.integers(min_value=0, max_value=2500),
)
@settings(max_examples=40, deadline=None)
def test_compiled_tracker_matches_array_tracker_on_wide_tables(
    entries, seed, spread, repeats, save_at, restore_at, reset_at
):
    """The step-by-step agreement with up to 200 entries and rows
    anywhere in int32's non-negative range: the min-count set spans
    several bitmap words and is emptied and rebuilt many times.
    Membership of every distinct row is compared every 97 steps and at
    the end."""
    stream = _wide_stream(seed, entries, spread, repeats)
    rows = sorted(set(stream)) + [-1, (1 << 31) - 1]
    probes = dict.fromkeys([*range(0, len(stream), 97), len(stream) - 1], rows)
    _follow_step_by_step(entries, stream, save_at, restore_at, reset_at, probes)


@given(
    entries=st.integers(min_value=1, max_value=6),
    threshold=st.integers(min_value=1, max_value=5),
    stream=st.lists(st.integers(min_value=0, max_value=9), min_size=0, max_size=200),
    start=st.integers(min_value=0, max_value=20),
)
@settings(max_examples=150, deadline=None)
def test_compiled_tracker_stream_stops_at_each_hot_row(
    entries, threshold, stream, start
):
    """``rk_tracker_stream`` from any start index returns exactly the
    indices where ``observe`` lands an estimate on a non-zero multiple
    of the threshold, and leaves the tracker as ``observe`` does."""
    _follow_stream(entries, threshold, stream, start)


@given(
    entries=wide_entries,
    threshold=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    spread=st.integers(min_value=1, max_value=4),
    repeats=st.integers(min_value=1, max_value=12),
    start=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=60, deadline=None)
def test_compiled_tracker_stream_stops_at_each_hot_row_on_wide_tables(
    entries, threshold, seed, spread, repeats, start
):
    """The same stops with up to 200 entries and rows anywhere in
    int32's non-negative range."""
    stream = _wide_stream(seed, entries, spread, repeats)
    _follow_stream(entries, threshold, stream, start)


@pytest.mark.parametrize(
    "state",
    [
        (0, [1 << 31], [1]),
        (0, [-(1 << 31) - 1], [1]),
        (0, [5], [1 << 31]),
        (0, [5], [-(1 << 31) - 1]),
        (1 << 31, [5], [1]),
        (0, [1 << 70], [1]),
    ],
    ids=["row-high", "row-low", "count-high", "count-low", "spill-high", "row-huge"],
)
def test_compiled_tracker_load_rejects_values_outside_int32(state):
    """C keeps rows and counts as int32: loading a tracker (say, from a
    restored checkpoint) with any value outside int32 raises instead of
    truncating it."""
    lib = block_kernel.load()
    tracker = ArrayMisraGries(4)
    compiled = _compiled(lib, [(tracker, 3)])
    tracker.restore_state(state)
    with pytest.raises(ValueError, match="int32"):
        compiled.load(0)
    edge = ((1 << 31) - 1, [-(1 << 31), (1 << 31) - 1], [(1 << 31) - 1, -(1 << 31)])
    tracker.restore_state(edge)
    compiled.load(0)
    assert compiled.snapshot(0) == edge
