"""Misra-Gries tracker on CAT storage with SetMin counters (§6.4).

The scalable hardware organization of the Hot-Row Tracker: entries live
in a :class:`CollisionAvoidanceTable` (2 tables x 64 sets x 20 ways for
the paper's 1700-entry tracker); each set carries a *SetMin* register
holding the minimum access count in the set, so the Misra-Gries
"compare spill counter to global minimum" step checks 128 SetMin values
instead of doing a fully associative counter search.

Functionally this tracker provides the same Invariant-1 guarantee as
the reference :class:`MisraGriesTracker` (no undercount beyond the
spill value); tie-breaking among minimum entries may differ, which the
property tests treat as allowed.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from repro.track.cat import CATConfig, CollisionAvoidanceTable


class CATMisraGriesTracker:
    """Hot-Row Tracker: Misra-Gries semantics, CAT storage."""

    def __init__(
        self,
        entries: int = 1700,
        cat_config: Optional[CATConfig] = None,
        seed: int = 0,
    ) -> None:
        if cat_config is None:
            cat_config = CATConfig(sets=64, demand_ways=14, extra_ways=6)
        if entries > cat_config.target_capacity + cat_config.tables * cat_config.sets * cat_config.extra_ways:
            raise ValueError("CAT too small for the requested entry count")
        self.entries = entries
        self.spill = 0
        self.cat = CollisionAvoidanceTable(cat_config, seed=seed)
        # SetMin registers, one per (table, set); None = empty set.
        self._set_min = [
            [None] * cat_config.sets for _ in range(cat_config.tables)
        ]

    # ------------------------------------------------------------------
    # Misra-Gries semantics
    # ------------------------------------------------------------------
    def observe(self, row: int) -> int:
        """Record one activation; returns the row's estimate (0 = spilled)."""
        value = self.cat.lookup(row)
        if value is not None:
            self.cat.update(row, value + 1)
            self._recompute_set_min_for(row)
            return value + 1

        if len(self.cat) < self.entries:
            self.cat.insert(row, self.spill + 1)
            self._recompute_set_min_for(row)
            return self.spill + 1

        minimum, victim = self._global_min()
        if self.spill < minimum:
            self.spill += 1
            return 0

        self.cat.remove(victim)
        self._recompute_set_min_for(victim)
        self.cat.insert(row, self.spill + 1)
        self._recompute_set_min_for(row)
        return self.spill + 1

    def estimate(self, row: int) -> int:
        """Current estimate for a row (0 if untracked)."""
        value = self.cat.lookup(row)
        return 0 if value is None else value

    def tracked_rows(self) -> Set[int]:
        """Rows currently holding counters."""
        return {key for key, _ in self.cat.items()}

    def reset(self) -> None:
        """Window rollover: invalidate everything."""
        self.spill = 0
        for row in list(self.tracked_rows()):
            self.cat.remove(row)
        config = self.cat.config
        self._set_min = [[None] * config.sets for _ in range(config.tables)]

    def __contains__(self, row: int) -> bool:
        return row in self.cat

    def __len__(self) -> int:
        return len(self.cat)

    # ------------------------------------------------------------------
    # Run contract (attack harnesses; scalar replay: CAT installs
    # depend on set occupancy, so there is no order-free bulk form)
    # ------------------------------------------------------------------
    def observe_run(self, row: int, count: int) -> int:
        """Apply ``count`` consecutive activations of ``row``; returns
        its final estimate."""
        estimate = 0
        for _ in range(count):
            estimate = self.observe(row)
        return estimate

    # ------------------------------------------------------------------
    # Snapshotable (repro.state): the CAT carries the entries; the
    # SetMin registers are derived from set contents and rebuilt on
    # restore (hardware recomputes them the same way).
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple:
        return (self.spill, self.cat.snapshot_state())

    def restore_state(self, state: tuple) -> None:
        spill, cat_state = state
        self.spill = spill
        self.cat.restore_state(cat_state)
        config = self.cat.config
        self._set_min = [
            [
                min(stored.values()) if stored else None
                for stored in self.cat._sets[table]
            ]
            for table in range(config.tables)
        ]

    # ------------------------------------------------------------------
    # SetMin machinery
    # ------------------------------------------------------------------
    def _recompute_set_min_for(self, row: int) -> None:
        """Recompute the SetMin of every set that could hold ``row``.

        Hardware recomputes SetMin on access/install/invalidate in the
        shadow of the memory access (§6.4); we do the same two-set
        recomputation here.
        """
        for table in range(self.cat.config.tables):
            set_index = self.cat._set_index(table, row)
            stored = self.cat._sets[table][set_index]
            self._set_min[table][set_index] = (
                min(stored.values()) if stored else None
            )

    def _global_min(self) -> Tuple[int, int]:
        """(minimum count, one row holding it) via the SetMin registers."""
        best: Optional[Tuple[int, int, int]] = None  # (count, table, set)
        for table, mins in enumerate(self._set_min):
            for set_index, value in enumerate(mins):
                if value is not None and (best is None or value < best[0]):
                    best = (value, table, set_index)
        if best is None:
            raise RuntimeError("_global_min() on an empty tracker")
        count, table, set_index = best
        stored = self.cat._sets[table][set_index]
        for row, value in stored.items():
            if value == count:
                return count, row
        raise RuntimeError("SetMin register inconsistent with set contents")
