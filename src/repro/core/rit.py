"""Row Indirection Table (RIT) — paper Sections 4.3 and 6.3.

The RIT records which rows have been swapped so every memory access can
be routed to the right physical location. We represent the mapping as a
sparse permutation over row addresses:

* ``route(row)`` returns where ``row``'s data physically lives (itself
  when unswapped) — the per-access lookup.
* A plain swap of X and Y creates the involutive pair the paper's
  Figure 4 shows: two directional entries, X->Y and Y->X (one "tuple").
* A *re-swap* of an already-swapped row extends the permutation cycle,
  consuming additional entries — the reason the paper sizes the RIT at
  twice the tracker's swap budget (3400 tuples = 6800 directional
  entries for 1700 swaps per window).

Lock bits: an entry installed in the current refresh window may not be
evicted (the security argument of Section 5.4 depends on swapped rows
staying swapped for the whole window). At window end all lock bits
clear and stale entries drain lazily — each eviction un-swaps one row
(a physical exchange moving its data home), the paper's lazy drain.

Storage fidelity: entries can optionally live in a
:class:`CollisionAvoidanceTable` with the paper's RIT geometry
(2 tables x 256 sets x 20 ways, Section 6.3), or in a plain dict for
speed; behaviour is identical as long as the CAT never conflicts.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional

from repro.core.swap import SwapOp
from repro.track.cat import CATConfig, CollisionAvoidanceTable

# The paper's RIT CAT geometry (Section 6.3).
RIT_CAT_CONFIG = CATConfig(sets=256, demand_ways=14, extra_ways=6)


class RITEntry(NamedTuple):
    """One directional entry: data of ``logical`` lives at ``physical``."""

    physical: int
    window: int  # install window; == current window -> lock bit set


class RowIndirectionTable:
    """Sparse logical->physical permutation with locked-entry eviction."""

    def __init__(
        self,
        capacity_tuples: int = 3400,
        use_cat: bool = False,
        seed: int = 0,
        evict_rng: Optional[Callable[[int], int]] = None,
    ) -> None:
        if capacity_tuples <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_tuples = capacity_tuples
        self.window = 0
        self.installs = 0
        self.evictions = 0
        self._map: Dict[int, RITEntry] = {}
        self._inverse: Dict[int, int] = {}  # physical -> logical
        self._evict_rng = evict_rng
        self._cat: Optional[CollisionAvoidanceTable] = (
            CollisionAvoidanceTable(RIT_CAT_CONFIG, seed=seed) if use_cat else None
        )
        # Plain logical->physical int mapping mirroring ``_map`` (which
        # carries the window/lock metadata): the per-access lookup is
        # one ``dict.get(row, row)`` with no attribute hop, and the
        # controller's inline fast path reads this dict directly. Kept
        # in sync by the two mutation choke points below.
        self.forward: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Lookup path (on every memory access)
    # ------------------------------------------------------------------
    def route(self, row: int) -> int:
        """Physical row holding ``row``'s data (itself when unswapped)."""
        return self.forward.get(row, row)

    def resident_of(self, physical: int) -> int:
        """Logical row whose data occupies a physical location."""
        return self._inverse.get(physical, physical)

    def is_swapped(self, row: int) -> bool:
        """True when the row participates in any swap."""
        return row in self._map

    @property
    def entries_used(self) -> int:
        """Directional entries currently stored."""
        return len(self._map)

    @property
    def capacity_entries(self) -> int:
        """Directional-entry capacity (2 per tuple)."""
        return 2 * self.capacity_tuples

    def __len__(self) -> int:
        return len(self._map)

    # ------------------------------------------------------------------
    # Swap / unswap
    # ------------------------------------------------------------------
    def swap(self, row_a: int, row_b: int) -> List[SwapOp]:
        """Exchange the data of logical rows A and B.

        Returns the physical operations to perform, *including* any
        eviction-driven un-swaps needed to make room. Raises when every
        resident entry is locked (cannot happen with the paper's
        sizing — asserted by the security tests).
        """
        if row_a == row_b:
            raise ValueError("cannot swap a row with itself")
        ops: List[SwapOp] = []
        # A swap adds at most 2 directional entries; evict until 2 free.
        while len(self._map) > 2 * self.capacity_tuples - 2:
            ops.append(self._evict_one())

        forward = self.forward
        phys_a = forward.get(row_a, row_a)
        phys_b = forward.get(row_b, row_b)
        ops.append(SwapOp._make((phys_a, phys_b, "swap")))

        # Atomic pair update: clear both rows' old mappings first, then
        # install the new ones, so inverse bookkeeping never collides.
        self._remove_forward(row_a)
        self._remove_forward(row_b)
        self._insert_forward(row_a, phys_b, self.window)
        self._insert_forward(row_b, phys_a, self.window)
        self.installs += 1
        return ops

    def end_window(self) -> None:
        """Clear all lock bits (entries become evictable next window)."""
        self.window += 1

    def locked_entries(self) -> int:
        """Entries installed in the current window (not evictable)."""
        return sum(1 for e in self._map.values() if e.window == self.window)

    def drain(self, max_evictions: Optional[int] = None) -> List[SwapOp]:
        """Proactively un-swap stale entries (the periodic drain the
        paper suggests to avoid worst-case 4.4us swap chains)."""
        ops: List[SwapOp] = []
        while self._has_evictable() and (
            max_evictions is None or len(ops) < max_evictions
        ):
            ops.append(self._evict_one())
        return ops

    # ------------------------------------------------------------------
    # Snapshotable (repro.state)
    #
    # ``_map`` is captured in insertion order: ``_evictable_rows``
    # iterates it and the default eviction policy takes the first
    # candidate, so the order is part of the observable state.
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple:
        return (
            self.window,
            self.installs,
            self.evictions,
            [
                (row, entry.physical, entry.window)
                for row, entry in self._map.items()
            ],
            None if self._cat is None else self._cat.snapshot_state(),
        )

    def restore_state(self, state: tuple) -> None:
        window, installs, evictions, entries, cat_state = state
        self.window = window
        self.installs = installs
        self.evictions = evictions
        self._map.clear()
        self.forward.clear()
        self._inverse.clear()
        for row, physical, entry_window in entries:
            self._map[row] = RITEntry(physical, entry_window)
            self.forward[row] = physical
            self._inverse[physical] = row
        if self._cat is not None:
            self._cat.restore_state(cat_state)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _remove_forward(self, row: int) -> Optional[RITEntry]:
        entry = self._map.pop(row, None)
        if entry is not None:
            del self.forward[row]
            self._inverse.pop(entry.physical, None)
            if self._cat is not None:
                self._cat.remove(row)
        return entry

    def _insert_forward(self, row: int, physical: int, window: int) -> None:
        if row == physical:
            return  # identity mappings are simply absent
        self._map[row] = RITEntry(physical, window)
        self.forward[row] = physical
        self._inverse[physical] = row
        if self._cat is not None:
            self._cat.insert(row, physical)

    def _evictable_rows(self) -> List[int]:
        """Stale entries whose un-swap cannot disturb a locked entry.

        Un-swapping row L displaces the resident of physical L (the
        cycle predecessor). If that predecessor's entry is locked
        (installed this window), evicting L would rewrite — possibly
        even un-swap — a protected entry, so such victims are skipped;
        they become evictable when the window ends.
        """
        out = []
        for row, entry in self._map.items():
            if entry.window == self.window:
                continue
            displaced = self._inverse[row]
            if displaced != row:
                displaced_entry = self._map.get(displaced)
                if (
                    displaced_entry is not None
                    and displaced_entry.window == self.window
                ):
                    continue
            out.append(row)
        return out

    def _has_evictable(self) -> bool:
        return bool(self._evictable_rows())

    def _evict_one(self) -> SwapOp:
        """Un-swap one unlocked entry; returns the physical exchange.

        Moving row L's data home (from physical P back to physical L)
        displaces whatever data occupied physical L onto P: the
        permutation cycle shortens by one, and a plain 2-cycle vanishes
        entirely.
        """
        candidates = self._evictable_rows()
        if not candidates:
            raise RuntimeError(
                "RIT full of locked entries — capacity was sized below "
                "the per-window swap budget"
            )
        if self._evict_rng is not None:
            victim = candidates[self._evict_rng(len(candidates))]
        else:
            victim = candidates[0]
        entry = self._map[victim]
        phys = entry.physical
        displaced = self._inverse[victim]  # whose data sits at physical `victim`

        # Physical exchange: victim's data (at `phys`) <-> data at `victim`.
        op = SwapOp._make((phys, victim, "unswap"))

        self._remove_forward(victim)
        if displaced != victim:
            displaced_entry = self._remove_forward(displaced)
            # The displaced row's data moved from physical `victim` to
            # `phys`; it keeps its own install window — a locked
            # (current-window) bystander stays locked, a stale one
            # stays evictable.
            window = entry.window if displaced_entry is None else displaced_entry.window
            self._insert_forward(displaced, phys, window)
        self.evictions += 1
        return op
