"""ArrayMisraGries: equivalence with the reference tracker and the
replay contracts (observe_block exactness, the per-row run credit's
safety, defined eviction tie-break)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mitigations.base import tracker_run_credit
from repro.track.array_state import ArrayMisraGries
from repro.track.misra_gries import MisraGriesTracker


def _stream(seed: int, length: int, universe: int, hot: int = 4):
    """Skewed activation stream: a few hot rows over a cold universe."""
    rng = random.Random(seed)
    hot_rows = [rng.randrange(universe) for _ in range(hot)]
    rows = []
    for _ in range(length):
        if rng.random() < 0.6:
            rows.append(rng.choice(hot_rows))
        else:
            rows.append(rng.randrange(universe))
    return rows


def _snapshot(tracker):
    return {
        "spill": tracker.spill,
        "estimates": {row: tracker.estimate(row) for row in tracker.tracked_rows()},
    }


def _evictions(tracker, rows, block=False):
    """Observe ``rows`` one at a time; the rows each one evicted."""
    evicted = []
    for row in rows:
        before = tracker.tracked_rows()
        if block:
            tracker.observe_block([row], 1)
        else:
            tracker.observe(row)
        evicted.append(sorted(before - tracker.tracked_rows()))
    return evicted


class TestReferenceEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_eviction_free_streams_are_bit_identical(self, seed):
        """The 200-row universe fits the 250-entry table, so the table
        never fills, no eviction (hence no tie-break) fires, and every
        observation matches the reference exactly. Invariant-1 sizing
        alone does not prevent evictions: a window touching more
        distinct rows than the table holds evicts at any sizing."""
        rows = _stream(seed, length=3000, universe=200)
        array = ArrayMisraGries.sized_for(len(rows), threshold=12)
        reference = MisraGriesTracker.sized_for(len(rows), threshold=12)
        for row in rows:
            assert array.observe(row) == reference.observe(row)
        assert _snapshot(array) == _snapshot(reference)
        assert len(array) == len(reference) < array.entries
        assert array.spill == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_invariant1_under_eviction_pressure(self, seed):
        """With a deliberately undersized tracker, evictions fire and
        tie-breaks may diverge from the reference — but Invariant 1
        (no undercount beyond the spill value) must still hold."""
        rng = random.Random(seed)
        rows = [rng.randrange(40) for _ in range(2000)]
        tracker = ArrayMisraGries(entries=8)
        true_counts = {}
        for row in rows:
            tracker.observe(row)
            true_counts[row] = true_counts.get(row, 0) + 1
        assert len(tracker) <= 8
        for row, count in true_counts.items():
            estimate = tracker.estimate(row)
            assert estimate <= count + tracker.spill
            if row in tracker:
                assert estimate + tracker.spill >= count

    def test_reset_matches_fresh_tracker(self):
        tracker = ArrayMisraGries(entries=4)
        for row in (1, 2, 3, 4, 5, 6, 1, 1):
            tracker.observe(row)
        tracker.reset()
        assert len(tracker) == 0
        assert tracker.spill == 0
        assert tracker.observe(9) == 1  # install path, like a fresh one


class TestObserveBlock:
    @pytest.mark.parametrize("seed", range(6))
    def test_block_apply_equals_sequential_observe(self, seed):
        """observe_block must reproduce the scalar operation order
        bit-for-bit, including installs, spills and evictions (both
        implementations use the lowest-slot tie-break)."""
        rows = _stream(seed, length=1500, universe=60)
        entries = [3, 8, 50][seed % 3]
        blocked = ArrayMisraGries(entries=entries)
        sequential = ArrayMisraGries(entries=entries)
        cursor = 0
        rng = random.Random(seed + 100)
        while cursor < len(rows):
            size = rng.randrange(1, 40)
            chunk = rows[cursor : cursor + size]
            blocked.observe_block(chunk, len(chunk))
            for row in chunk:
                sequential.observe(row)
            cursor += size
        assert blocked.snapshot_state() == sequential.snapshot_state()
        # Same minimum and tie-break from here on: a burst of fresh rows
        # spills up to the minimum and then evicts the same victims.
        burst = range(10_000, 10_200)
        evicted = _evictions(sequential, burst)
        assert any(evicted)
        assert _evictions(blocked, burst, block=True) == evicted
        assert blocked.snapshot_state() == sequential.snapshot_state()

    def test_partial_count_applies_prefix_only(self):
        tracker = ArrayMisraGries(entries=4)
        tracker.observe_block([7, 7, 7, 9], 2)
        assert tracker.estimate(7) == 2
        assert 9 not in tracker


class TestNoopHorizon:
    """A row's noop horizon: the run credit its own counter grants."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("threshold", [3, 7, 12])
    def test_horizon_activations_cannot_hit_a_multiple(self, seed, threshold):
        """The contract the harnesses' run credit rests on: after any
        prefix, ``tracker_run_credit(row)`` further activations of that
        row land no estimate on a non-zero multiple of the threshold,
        for tracked and untracked rows through spills and evictions;
        for a tracked row the next activation after them does."""
        rng = random.Random(seed)
        tracker = ArrayMisraGries(entries=6)
        for _ in range(rng.randrange(0, 300)):
            tracker.observe(rng.randrange(25))
        for row in range(25):
            probe = ArrayMisraGries(entries=6)
            probe.restore_state(tracker.snapshot_state())
            tracked = row in probe
            credit = tracker_run_credit(probe, row, threshold)
            assert 0 <= credit < threshold
            for _ in range(credit):
                estimate = probe.observe(row)
                assert estimate == 0 or estimate % threshold != 0
            if tracked:
                assert probe.observe(row) % threshold == 0

    def test_horizon_is_zero_when_a_counter_is_one_short(self):
        tracker = ArrayMisraGries(entries=4)
        for _ in range(6):
            tracker.observe(1)
        assert tracker_run_credit(tracker, 1, 7) == 0
        assert tracker_run_credit(tracker, 2, 7) == 6  # spill 0


class TestTieBreak:
    def test_eviction_takes_the_lowest_slot(self):
        """The defined tie-break: among minimum-count entries, the
        lowest slot index is evicted."""
        tracker = ArrayMisraGries(entries=2)
        tracker.observe(1)  # slot 0, count 1
        tracker.observe(2)  # slot 1, count 1
        assert tracker.observe(3) == 0  # spill 0 < min 1 -> spilled
        assert tracker.spill == 1
        assert tracker.observe(4) == 2  # spill == min -> evict slot 0
        assert 1 not in tracker
        assert 2 in tracker
        assert tracker.estimate(4) == 2  # spill + 1

    def test_lowest_slot_can_differ_from_the_reference(self):
        """The reference evicts the entry that reached the minimum count
        first; once two entries tie in other than slot order, the
        victims differ (Invariant 1 holds either way)."""
        array = ArrayMisraGries(entries=2)
        reference = MisraGriesTracker(entries=2)
        for row in (1, 2, 2, 1, 3, 4):  # 1 and 2 tie at 2, row 2 first
            assert array.observe(row) == reference.observe(row)
        assert array.spill == reference.spill == 2
        assert array.observe(5) == reference.observe(5) == 3
        assert array.tracked_rows() == {2, 5}  # slot 0 (row 1) evicted
        assert reference.tracked_rows() == {1, 5}

    def test_restore_after_heap_build_evicts_the_same_victims(self):
        """A snapshot taken in the eviction regime is the ``(spill,
        rows, counts)`` triple (state schema v6) and restores into a
        tracker that evicts exactly what the uninterrupted one evicts:
        the restored heap is rebuilt from exact counts at its first
        full-table miss, the uninterrupted one holds stale lower
        bounds."""
        tracker = ArrayMisraGries(entries=8)
        rows = _stream(3, length=600, universe=40)
        tracker.observe_block(rows, len(rows))
        assert tracker._heap  # full table, heap built
        state = tracker.snapshot_state()
        assert [type(part) for part in state] == [int, list, list]
        restored = ArrayMisraGries(entries=8)
        restored.restore_state(state)
        assert restored._heap is None
        burst = range(1000, 1200)
        evicted = _evictions(tracker, burst)
        assert any(evicted)
        assert _evictions(restored, burst) == evicted
        assert restored.snapshot_state() == tracker.snapshot_state()


class _BruteForceTracker:
    """Figure 3 by brute force: a full-table miss scans for the minimum
    count and evicts the lowest slot holding it."""

    def __init__(self, entries):
        self.entries = entries
        self.reset()

    def reset(self):
        self.spill = 0
        self.rows = []
        self.counts = []

    def observe(self, row):
        if row in self.rows:
            slot = self.rows.index(row)
            self.counts[slot] += 1
            return self.counts[slot]
        if len(self.rows) < self.entries:
            self.rows.append(row)
            self.counts.append(self.spill + 1)
            return self.spill + 1
        low = min(self.counts)
        if self.spill < low:
            self.spill += 1
            return 0
        victim = self.counts.index(low)
        self.rows[victim] = row
        self.counts[victim] = self.spill + 1
        return self.spill + 1


@given(data=st.data(), entries=st.sampled_from([1, 2, 3, 8, 64]))
@settings(max_examples=150, deadline=None)
def test_matches_brute_force_lowest_slot_model(data, entries):
    """Every tracker operation, interleaved arbitrarily, agrees with the
    brute-force model: observe and observe_block (random chunk sizes,
    partial counts), bursts of fresh rows that push the spill counter
    up to the minimum, reset, and snapshot/restore."""
    tracker = ArrayMisraGries(entries=entries)
    model = _BruteForceTracker(entries)
    hot_row = st.integers(min_value=0, max_value=2 * entries + 1)
    fresh = 10_000
    for _ in range(data.draw(st.integers(min_value=1, max_value=60))):
        op = data.draw(
            st.sampled_from(["observe", "block", "burst", "reset", "restore"])
        )
        if op == "observe":
            row = data.draw(hot_row)
            assert tracker.observe(row) == model.observe(row)
        elif op in ("block", "burst"):
            if op == "block":
                rows = data.draw(st.lists(hot_row, min_size=1, max_size=40))
                count = data.draw(st.integers(min_value=0, max_value=len(rows)))
            else:
                size = data.draw(st.integers(min_value=1, max_value=3 * entries + 8))
                rows = list(range(fresh, fresh + size))
                fresh += size
                count = size
            tracker.observe_block(rows, count)
            for row in rows[:count]:
                model.observe(row)
        elif op == "reset":
            tracker.reset()
            model.reset()
        else:
            restored = ArrayMisraGries(entries=entries)
            restored.restore_state(tracker.snapshot_state())
            tracker = restored
        assert tracker.snapshot_state()[:3] == (model.spill, model.rows, model.counts)
