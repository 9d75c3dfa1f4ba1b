"""Array-state Misra-Gries tracker: the hot-row tracker of RRS and Graphene.

Same Figure-3 semantics and Invariant-1 guarantee as the reference
:class:`repro.track.misra_gries.MisraGriesTracker`, reorganized for
run-length replay and for the compiled loop's C copy:

* Counters live in stable *slots* (parallel ``_rows``/``_counts``
  arrays) instead of dict churn — an eviction reuses the victim's slot,
  so slot identity is as stable as a hardware CAM entry.
* The eviction minimum comes from one heap of ``(count, slot)`` pairs
  that bumps never touch: within a window counts only grow, so a stale
  entry is a lower bound on its slot's count, and a full-table miss
  corrects stale entries at the top until the top is exact — O(log N)
  per correction instead of a scan of the minimum-count entries.
* ``observe_run`` applies ``count`` activations of one row with a
  single counter bump once the row holds a slot. The attack harnesses
  size those runs from the row's own counter
  (:func:`repro.mitigations.base.tracker_run_credit`, DESIGN.md §9.7).

The compiled system loop and Figure 5's replay run a C copy of this
tracker for RRS and Graphene (``mem/block_loop.c``, DESIGN.md §12.1)
with the same rules and victims, found there with a bitmap of the
minimum-count slots instead of the heap, over int32 rows and counts:
they load and write back the ``snapshot_state`` ``(spill, rows,
counts)`` triple and, in between, leave this object stale (an action
asks C for membership). ``restore_state`` leaves the row -> slot dict
unbuilt until its first use, since the loop's write-back at every
window end is followed by a ``reset``. So this class is the tracker of the scalar loop and the
attack harnesses, and the fallback where the loop cannot be compiled.

Tie-break policy: the reference tracker evicts the minimum-count entry
that reached that count first (its buckets are insertion-ordered);
this tracker evicts the *lowest slot index* among the minimum-count
entries, a defined rule that is reproducible from any implementation.
The two rules pick different victims whenever the tied entries reached
the minimum in other than slot order (rows A, B in slots 0, 1 hit in
the order A B B A tie at 2 with B first). Invariant 1 holds for either
rule, and the property tests treat tie-break differences as allowed.
Invariant-1 sizing keeps the spill counter below T, not below the
minimum counter: evictions fire whenever a window touches more
distinct rows than the table has entries, which the memory-intensive
Figure-6 workloads do thousands of times per window.
"""

from __future__ import annotations

from contextlib import suppress
from heapq import heapify, heapreplace
from typing import Dict, List, Optional, Set, Tuple


# repro-oracle: tracker-misra-gries -- kernel
class ArrayMisraGries:
    """Misra-Gries tracker with slot storage and run-apply support."""

    __slots__ = ("entries", "spill", "_rows", "_counts", "_slot_of", "_heap")

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
        # A restored tracker has none until its next full-table miss.
        self._heap: Optional[List[Tuple[int, int]]] = None

    @classmethod
    def sized_for(cls, window_activations: int, threshold: int) -> "ArrayMisraGries":
        """Invariant-1 sizing, N > W/T - 1 (matches the reference)."""
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        return cls(entries=max(1, window_activations // threshold))

    # ------------------------------------------------------------------
    # Scalar path (the oracle's tracker operations)
    # ------------------------------------------------------------------
    # repro-oracle: tracker-observe-run -- oracle
    def observe(self, row: int) -> int:
        """Record one activation of ``row``; returns its new estimate."""
        slot = self._slot_of.get(row)
        if slot is not None:
            count = self._counts[slot] + 1
            self._counts[slot] = count
            return count

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

    def reset(self) -> None:
        """Window rollover: drop all counters and the spill counter."""
        self.spill = 0
        self._rows.clear()
        self._counts.clear()
        self._slot_of = {}
        self._heap = None

    def __contains__(self, row: int) -> bool:
        return row in self._slot_of

    def __len__(self) -> int:
        return len(self._rows)

    def __getattr__(self, name: str):
        # Reached only for an unset slot: restore_state leaves the
        # row -> slot index unbuilt (the compiled loop writes a tracker
        # back at every window end and then resets it), and its first
        # use builds it.
        if name != "_slot_of":
            raise AttributeError(name)
        self._slot_of = slot_of = dict(zip(self._rows, range(len(self._rows))))
        return slot_of

    # ------------------------------------------------------------------
    # Deferred and run-length replay
    # ------------------------------------------------------------------
    def observe_block(self, rows, count: int) -> None:
        """Apply the first ``count`` activations of ``rows`` in order.

        No simulation path calls it (the compiled loop runs this
        tracker in C); ``perfbench/spans.py`` patches it by name."""
        observe = self.observe
        for i in range(count):
            observe(rows[i])

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
                estimate = self._counts[slot] + count
                self._counts[slot] = estimate
                break
            estimate = self.observe(row)
            count -= 1
        return estimate

    # ------------------------------------------------------------------
    # Snapshotable (repro.state): the spill counter and the slots. The
    # eviction heap is a derived view, rebuilt from exact counts at the
    # next full-table miss; it picks the same victims as one holding
    # stale lower bounds, since the settled top is the minimum
    # (count, slot) pair either way.
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple:
        return self.spill, list(self._rows), list(self._counts)

    def restore_state(self, state: tuple) -> None:
        spill, rows, counts = state
        self.spill = spill
        self._rows = list(rows)
        self._counts = list(counts)
        with suppress(AttributeError):  # already unbuilt
            del self._slot_of
        self._heap = None

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
        if heap is None:
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
        return estimate

    def _install(self, row: int, count: int) -> int:
        self._slot_of[row] = len(self._rows)
        self._rows.append(row)
        self._counts.append(count)
        return count
