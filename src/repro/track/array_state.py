"""Array-state Misra-Gries tracker: the hot-row tracker of RRS and Graphene.

Same Figure-3 semantics and Invariant-1 guarantee as the reference
:class:`repro.track.misra_gries.MisraGriesTracker`, reorganized for
deferred and run-length replay:

* Counters live in stable *slots* (parallel ``_rows``/``_counts``
  arrays) instead of dict churn — an eviction reuses the victim's slot,
  so slot identity is as stable as a hardware CAM entry.
* The eviction minimum comes from one heap of ``(count, slot)`` pairs
  that bumps never touch: within a window counts only grow, so a stale
  entry is a lower bound on its slot's count, and a full-table miss
  corrects stale entries at the top until the top is exact — O(log N)
  per correction instead of a scan of the minimum-count entries.
* ``observe_block`` replays a run of activations in one inlined loop;
  only a miss on a full table leaves it, for the same helper
  ``observe`` uses. ``observe_run`` applies ``count`` activations of
  one row with a single counter bump once the row holds a slot.
* ``noop_horizon`` computes how many *future* activations are provably
  unable to land any counter on a threshold multiple — the credit the
  compiled loop uses to defer mitigation calls (DESIGN.md §9).

The compiled system loop and Figure 5's replay run a C copy of this
tracker for RRS (``mem/block_loop.c``, DESIGN.md §12.1) with the same
rules: they load and write back the ``snapshot_state`` 4-tuple and, in
between, leave this object stale (a swap asks C for membership). So
this class is the tracker of the scalar loop, the attack harnesses and
Graphene, and the fallback where the loop cannot be compiled.

Tie-break policy: the reference tracker evicts the minimum-count entry
that reached that count first (its buckets are insertion-ordered);
this tracker evicts the *lowest slot index* among the minimum-count
entries, a defined rule that is reproducible from any implementation.
The two rules pick different victims whenever the tied entries reached
the minimum in other than slot order (rows A, B in slots 0, 1 hit in
the order A B B A tie at 2 with B first). Invariant 1 holds for either
rule, and the property tests treat tie-break differences as allowed
(as they already do for the CAT tracker). Invariant-1 sizing keeps the
spill counter below T, not below the minimum counter: evictions fire
whenever a window touches more distinct rows than the table has
entries, which the memory-intensive Figure-6 workloads do thousands of
times per window.
"""

from __future__ import annotations

from heapq import heapify, heapreplace
from typing import Dict, List, Optional, Set, Tuple


# repro-oracle: tracker-misra-gries -- kernel
class ArrayMisraGries:
    """Misra-Gries tracker with slot storage and block-apply support."""

    __slots__ = ("entries", "spill", "_rows", "_counts", "_slot_of",
                 "_heap", "_residue_t", "_residue_hist", "_residue_max")

    def __init__(self, entries: int) -> None:
        if entries <= 0:
            raise ValueError("tracker needs at least one entry")
        self.entries = entries
        self.spill = 0
        self._rows: List[int] = []  # slot -> row id
        self._counts: List[int] = []  # slot -> estimate
        self._slot_of: Dict[int, int] = {}  # row -> slot
        # One (count lower bound, slot) entry per slot. Only full-table
        # misses read it, so it is built at the first of them (never, in
        # a window whose row footprint fits the table), and bumps never
        # touch it: _full_miss corrects stale entries when they surface.
        # A restored tracker whose heap was built holds [] until its
        # next full-table miss rebuilds it.
        self._heap: Optional[List[Tuple[int, int]]] = None
        # Residue histogram for O(1) noop_horizon: once a threshold T is
        # seen, ``_residue_hist[r]`` counts live slots with count % T ==
        # r and ``_residue_max`` upper-bounds the largest populated
        # residue (fixed up lazily by scanning downward, <= T steps).
        # Every bump/install/evict maintains it in O(1), so the horizon
        # query never rescans the counter table — the scan that
        # otherwise dominates flush cost for small scaled T_RRS.
        self._residue_t = 0
        self._residue_hist: Optional[List[int]] = None
        self._residue_max = 0

    @classmethod
    def sized_for(cls, window_activations: int, threshold: int) -> "ArrayMisraGries":
        """Invariant-1 sizing, N > W/T - 1 (matches the reference)."""
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        return cls(entries=max(1, window_activations // threshold))

    # ------------------------------------------------------------------
    # Scalar path (the oracle's tracker operations)
    # ------------------------------------------------------------------
    # repro-oracle: tracker-observe-block -- oracle
    # repro-oracle: tracker-observe-run -- oracle
    def observe(self, row: int) -> int:
        """Record one activation of ``row``; returns its new estimate."""
        slot = self._slot_of.get(row)
        if slot is not None:
            count = self._counts[slot]
            self._bump(slot, count, count + 1)
            return count + 1

        if len(self._slot_of) < self.entries:
            return self._install(row, self.spill + 1)
        return self._full_miss(row)

    def estimate(self, row: int) -> int:
        """Current estimate for a row (0 if untracked)."""
        slot = self._slot_of.get(row)
        return 0 if slot is None else self._counts[slot]

    def tracked_rows(self) -> Set[int]:
        """The rows currently holding counters."""
        return set(self._slot_of)

    def rows_with_estimate_at_least(self, threshold: int) -> Set[int]:
        """Rows whose estimate has reached ``threshold``."""
        return {
            row for row, slot in self._slot_of.items()
            if self._counts[slot] >= threshold
        }

    def reset(self) -> None:
        """Window rollover: drop all counters and the spill counter."""
        self.spill = 0
        self._rows.clear()
        self._counts.clear()
        self._slot_of.clear()
        self._heap = None
        self._residue_t = 0
        self._residue_hist = None
        self._residue_max = 0

    def __contains__(self, row: int) -> bool:
        return row in self._slot_of

    def __len__(self) -> int:
        return len(self._slot_of)

    # ------------------------------------------------------------------
    # Deferred and run-length replay
    # ------------------------------------------------------------------
    # repro-oracle: tracker-observe-block -- kernel
    def observe_block(self, rows, count: int) -> None:
        """Apply the first ``count`` activations of ``rows`` in order.

        Bumps and installs update counts and the residue histogram
        inline (``_residue_max`` stays an upper bound the horizon query
        tightens lazily); a miss on a full table goes through
        ``_full_miss`` exactly as ``observe`` sends it, so the result is
        the scalar one bit-for-bit.
        """
        slot_of = self._slot_of
        slot_rows = self._rows
        counts = self._counts
        entries = self.entries
        # Stable across the block: the residue threshold only changes
        # inside noop_horizon (never called from here).
        t = self._residue_t
        hist = self._residue_hist
        get = slot_of.get
        rmax = self._residue_max
        for i in range(count):
            row = rows[i]
            slot = get(row)
            if slot is not None:
                old = counts[slot]
                counts[slot] = old + 1
                if t:
                    old_residue = old % t
                    hist[old_residue] -= 1
                    # new = old + 1, so the new residue is the old
                    # one stepped once around the ring.
                    residue = old_residue + 1
                    if residue == t:
                        residue = 0
                    hist[residue] += 1
                    if residue > rmax:
                        rmax = residue
            elif len(slot_of) < entries:
                estimate = self.spill + 1
                slot_of[row] = len(slot_rows)
                slot_rows.append(row)
                counts.append(estimate)
                if t:
                    residue = estimate % t
                    hist[residue] += 1
                    if residue > rmax:
                        rmax = residue
            else:
                self._residue_max = rmax
                self._full_miss(row)
                rmax = self._residue_max
        self._residue_max = rmax

    # repro-oracle: tracker-observe-run -- kernel
    def observe_run(self, row: int, count: int) -> int:
        """Apply ``count`` consecutive activations of ``row``; returns
        its final estimate (as the last ``observe`` would).

        Activations go through ``observe`` until the row holds a slot —
        a spill or eviction on a full table is the scalar one — and the
        rest of the run is one counter bump: within a window nothing but
        this row's own hits moves its count.
        """
        slot_of = self._slot_of
        estimate = 0
        while count > 0:
            slot = slot_of.get(row)
            if slot is not None:
                old = self._counts[slot]
                estimate = old + count
                self._bump(slot, old, estimate)
                break
            estimate = self.observe(row)
            count -= 1
        return estimate

    def noop_horizon(self, threshold: int) -> int:
        """Activations guaranteed not to land any estimate on a
        non-zero multiple of ``threshold``.

        Increment path: a tracked counter at ``c`` needs ``T - c % T``
        more hits to reach a multiple. Install path: an installed
        estimate is ``spill + 1`` and the spill counter grows at most
        one per activation, so after ``j`` activations every install
        estimate is at most ``spill0 + j`` — safe while that stays
        below the next multiple of T above ``spill0``.
        """
        t = threshold
        if t != self._residue_t:
            self._build_residue_hist(t)
        hist = self._residue_hist
        max_residue = self._residue_max
        while max_residue > 0 and not hist[max_residue]:
            max_residue -= 1
        self._residue_max = max_residue
        inc_safe = t - max_residue - 1
        install_safe = t - (self.spill % t) - 1
        horizon = inc_safe if inc_safe < install_safe else install_safe
        return horizon if horizon > 0 else 0

    def _build_residue_hist(self, threshold: int) -> None:
        """(Re)build the residue histogram for a new threshold — once
        per threshold per window; all later maintenance is O(1)."""
        hist = [0] * threshold
        max_residue = 0
        for count in self._counts:
            residue = count % threshold
            hist[residue] += 1
            if residue > max_residue:
                max_residue = residue
        self._residue_t = threshold
        self._residue_hist = hist
        self._residue_max = max_residue

    # ------------------------------------------------------------------
    # Snapshotable (repro.state): slots, the spill counter, and whether
    # the lazy eviction heap has materialized. The heap and the residue
    # histogram are derived views: the heap is rebuilt at the next
    # full-table miss, so a restored tracker makes the same lazy/eager
    # transitions at the same points an uninterrupted one would (a heap
    # rebuilt from exact counts picks the same victims as one holding
    # stale lower bounds: the settled top is the minimum (count, slot)
    # pair either way), and the histogram at the next ``noop_horizon``.
    # Only deferring runs ask for a horizon, so leaving the histogram
    # out keeps a snapshot independent of the loop that took it.
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple:
        return (
            self.spill,
            list(self._rows),
            list(self._counts),
            self._heap is not None,
        )

    def restore_state(self, state: tuple) -> None:
        spill, rows, counts, heap_built = state
        self.spill = spill
        self._rows = list(rows)
        self._counts = list(counts)
        self._slot_of = dict(zip(self._rows, range(len(self._rows))))
        self._heap = [] if heap_built else None
        self._residue_t = 0
        self._residue_hist = None
        self._residue_max = 0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _build_heap(self) -> List[Tuple[int, int]]:
        """Materialize the eviction heap once the table is full (every
        slot is live: evictions cannot precede the first build)."""
        heap = [(count, slot) for slot, count in enumerate(self._counts)]
        heapify(heap)
        self._heap = heap
        return heap

    def _full_miss(self, row: int) -> int:
        """Figure 3 for an untracked row on a full table: spill while
        the spill counter is below the minimum count, else replace the
        lowest slot among the minimum-count entries.

        Every heap entry is at most its slot's true count, and the top
        is at most every entry, so once the top is exact no slot has a
        smaller (count, slot) pair: it is the minimum count and, among
        the slots holding it, the lowest.
        """
        heap = self._heap
        if not heap:
            heap = self._build_heap()
        counts = self._counts
        low, slot = heap[0]
        count = counts[slot]
        while count != low:
            heapreplace(heap, (count, slot))
            low, slot = heap[0]
            count = counts[slot]
        if self.spill < count:
            self.spill += 1
            return 0
        estimate = self.spill + 1
        heapreplace(heap, (estimate, slot))
        del self._slot_of[self._rows[slot]]
        self._rows[slot] = row
        counts[slot] = estimate
        self._slot_of[row] = slot
        t = self._residue_t
        if t:
            hist = self._residue_hist
            hist[count % t] -= 1
            residue = estimate % t
            hist[residue] += 1
            if residue > self._residue_max:
                self._residue_max = residue
        return estimate

    def _bump(self, slot: int, old: int, new: int) -> None:
        self._counts[slot] = new
        t = self._residue_t
        if t:
            hist = self._residue_hist
            hist[old % t] -= 1
            residue = new % t
            hist[residue] += 1
            if residue > self._residue_max:
                self._residue_max = residue

    def _install(self, row: int, count: int) -> int:
        self._slot_of[row] = len(self._rows)
        self._rows.append(row)
        self._counts.append(count)
        t = self._residue_t
        if t:
            residue = count % t
            self._residue_hist[residue] += 1
            if residue > self._residue_max:
                self._residue_max = residue
        return count
