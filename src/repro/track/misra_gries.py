"""Misra-Gries frequent-items tracker (Graphene's Hot-Row Tracker).

Reference implementation of the algorithm the paper's Figure 3 walks
through. Guarantee (paper Invariant 1, proved in Graphene): with
``entries > W/T - 1`` counters, every row activated at least T times in
a window of W total activations holds a counter whose estimate reaches
T — so swap-triggering on counter multiples of T can never miss a hot
row. Estimates overcount by at most the spill counter, never
undercount.

Operation per Figure 3:

* Address present -> increment its counter.
* Address absent and spill-counter < min counter -> increment spill.
* Address absent and spill-counter == min counter -> replace one
  minimum-count entry with the address, estimate = spill + 1.

The implementation buckets entries by count so the minimum is O(1)
amortized (counts only grow within a window), keeping full-scale runs
(1.36 M activations/window through 1700 entries) tractable.
"""

from __future__ import annotations

from typing import Dict, Set


# repro-oracle: tracker-misra-gries -- oracle
class MisraGriesTracker:
    """One bank's hot-row tracker.

    Buckets are insertion-ordered dicts used as sets, so the eviction
    tie-break (`next(iter(bucket))` = oldest member) is a deterministic
    function of the observation history — which also makes the tracker
    exactly checkpointable (repro.state): a restored instance evicts
    the same victims the uninterrupted one would.
    """

    def __init__(self, entries: int) -> None:
        if entries <= 0:
            raise ValueError("tracker needs at least one entry")
        self.entries = entries
        self.spill = 0
        self._counts: Dict[int, int] = {}
        self._buckets: Dict[int, Dict[int, None]] = {}
        self._min_count = 0

    @classmethod
    def sized_for(cls, window_activations: int, threshold: int) -> "MisraGriesTracker":
        """Size the tracker per the Invariant-1 inequality N > W/T - 1.

        For the paper's W = 1.36 M and T = 800 this yields 1700 entries.
        """
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        return cls(entries=max(1, window_activations // threshold))

    # ------------------------------------------------------------------
    # Core algorithm
    # ------------------------------------------------------------------
    def observe(self, row: int) -> int:
        """Record one activation of ``row``; returns its new estimate.

        Returns 0 when the activation was absorbed by the spill counter
        (the row is guaranteed to have fewer activations than any
        tracked row, so it cannot be hot).
        """
        count = self._counts.get(row)
        if count is not None:
            self._move(row, count, count + 1)
            return count + 1

        if len(self._counts) < self.entries:
            self._insert(row, self.spill + 1)
            return self.spill + 1

        if self.spill < self._min_count:
            self.spill += 1
            return 0

        # Tie: replace one minimum entry, estimate = spill + 1.
        victim = next(iter(self._buckets[self._min_count]))
        self._remove(victim, self._min_count)
        self._insert(row, self.spill + 1)
        return self.spill + 1

    def estimate(self, row: int) -> int:
        """Current estimate for a row (0 if untracked)."""
        return self._counts.get(row, 0)

    def tracked_rows(self) -> Set[int]:
        """The rows currently holding counters."""
        return set(self._counts)

    def rows_with_estimate_at_least(self, threshold: int) -> Set[int]:
        """Rows whose estimate has reached ``threshold``."""
        return {row for row, c in self._counts.items() if c >= threshold}

    def reset(self) -> None:
        """Window rollover: drop all counters and the spill counter."""
        self.spill = 0
        self._counts.clear()
        self._buckets.clear()
        self._min_count = 0

    def __contains__(self, row: int) -> bool:
        return row in self._counts

    def __len__(self) -> int:
        return len(self._counts)

    # ------------------------------------------------------------------
    # Deferral interface (kept for backend interchangeability; the
    # array-state tracker implements the bulk fast path)
    # ------------------------------------------------------------------
    def observe_block(self, rows, count: int) -> None:
        """Apply the first ``count`` activations of ``rows``."""
        for i in range(count):
            self.observe(rows[i])

    def noop_horizon(self, threshold: int) -> int:
        """Activations guaranteed not to land any estimate on a
        non-zero multiple of ``threshold`` (see ArrayMisraGries)."""
        t = threshold
        if self._counts:
            inc_safe = t - max(c % t for c in self._counts.values()) - 1
        else:
            inc_safe = t - 1
        install_safe = t - (self.spill % t) - 1
        horizon = min(inc_safe, install_safe)
        return horizon if horizon > 0 else 0

    # ------------------------------------------------------------------
    # Bucketed min-tracking internals
    # ------------------------------------------------------------------
    def _insert(self, row: int, count: int) -> None:
        self._counts[row] = count
        self._buckets.setdefault(count, {})[row] = None
        if len(self._counts) == 1 or count < self._min_count:
            self._min_count = count

    def _remove(self, row: int, count: int) -> None:
        del self._counts[row]
        bucket = self._buckets[count]
        bucket.pop(row, None)
        if not bucket:
            del self._buckets[count]
            if count == self._min_count:
                self._refresh_min()

    def _move(self, row: int, old: int, new: int) -> None:
        bucket = self._buckets[old]
        bucket.pop(row, None)
        if not bucket:
            del self._buckets[old]
        self._counts[row] = new
        self._buckets.setdefault(new, {})[row] = None
        if old == self._min_count and old not in self._buckets:
            self._refresh_min()

    def _refresh_min(self) -> None:
        self._min_count = min(self._buckets) if self._buckets else 0

    # ------------------------------------------------------------------
    # Snapshotable (repro.state)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple:
        """Counters, buckets (in insertion order), spill, and minimum."""
        return (
            self.spill,
            dict(self._counts),
            {count: list(bucket) for count, bucket in self._buckets.items()},
            self._min_count,
        )

    def restore_state(self, state: tuple) -> None:
        spill, counts, buckets, min_count = state
        self.spill = spill
        self._counts = dict(counts)
        self._buckets = {
            count: dict.fromkeys(rows) for count, rows in buckets.items()
        }
        self._min_count = min_count
