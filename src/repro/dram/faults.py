"""Row Hammer disturbance fault model.

Models the physics the paper's security argument rests on (Section 5.1):
a row whose *effective* activation-induced disturbance since its last
charge restore crosses the Row Hammer threshold ``T_RH`` may flip bits.

Effective disturbance on row ``v``:

* Every ACT of row ``v±1`` adds 1.0 (classic blast radius 1).
* Every ACT of row ``v±2`` adds ``distance2_coupling`` (weak direct
  coupling; measured values put it around 4.8K/296K ~ 0.016 [12]).
* A *targeted mitigative refresh* of a row internally activates it, so
  it restores that row's charge **and disturbs its own neighbours like
  an ACT does**. This is exactly the amplification loop the Half-Double
  attack exploits: victim-focused mitigation turns hammering of a
  near-aggressor into a stream of refresh-activations on the far
  aggressor, flipping bits two rows away.
* A row's own ACT (or refresh) restores its charge — disturbance resets.

The periodic auto-refresh restores every row once per refresh window,
which is why the paper counts activations per 64 ms window.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, repeat
from operator import add
from typing import Iterable, List, Tuple

import numpy as np

def _running_sums(start: float, amount: float, count: int) -> List[float]:
    """``start`` and its ``count`` successors, adding ``amount`` one add
    at a time (non-decreasing, so the first to reach a threshold is a
    bisection away)."""
    return list(accumulate(repeat(amount, count), initial=start))


@dataclass(frozen=True)
class BitFlipEvent:
    """One Row Hammer bit flip: which physical row, when, and why."""

    row: int
    window: int
    disturbance: float
    cause: str  # "activate" | "refresh"

    def __str__(self) -> str:
        return (
            f"bit-flip in row {self.row} (window {self.window}, "
            f"disturbance {self.disturbance:.0f}, via {self.cause})"
        )


class DisturbanceModel:
    """Per-bank accumulated-disturbance state with flip detection.

    ``rows`` are *physical* DRAM rows: the RRS indirection layer sits
    above this model, so swaps change which logical row's activations
    land on which physical neighbourhood — precisely the spatial
    decorrelation the paper's defense provides.
    """

    def __init__(
        self,
        rows: int,
        t_rh: float = 4800.0,
        distance2_coupling: float = 0.016,
        refresh_disturbs_neighbors: bool = True,
    ) -> None:
        if rows <= 0:
            raise ValueError("rows must be positive")
        if t_rh <= 0:
            raise ValueError("T_RH must be positive")
        if not 0.0 <= distance2_coupling <= 1.0:
            raise ValueError("distance-2 coupling must be in [0, 1]")
        self.rows = rows
        self.t_rh = float(t_rh)
        self.distance2_coupling = float(distance2_coupling)
        self.refresh_disturbs_neighbors = refresh_disturbs_neighbors
        self.window = 0
        self.flips: List[BitFlipEvent] = []
        self._disturbance = np.zeros(rows, dtype=np.float64)
        self._flipped_this_window = np.zeros(rows, dtype=bool)

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    # repro-oracle: disturbance-activate-run -- oracle
    def on_activate(self, row: int, count: int = 1, cause: str = "activate") -> None:
        """Apply ``count`` back-to-back activations of a physical row."""
        self._check_row(row)
        if count <= 0:
            return
        self._disturbance[row] = 0.0  # an ACT restores the row's own cells
        self._disturb(row - 1, float(count), cause)
        self._disturb(row + 1, float(count), cause)
        if self.distance2_coupling > 0.0:
            self._disturb(row - 2, count * self.distance2_coupling, cause)
            self._disturb(row + 2, count * self.distance2_coupling, cause)

    # repro-oracle: disturbance-activate-run -- kernel
    def on_activate_run(self, row: int, count: int) -> None:
        """Apply ``count`` back-to-back single activations of ``row``,
        a count the caller has already bounded by
        :meth:`activations_to_flip`: only the last of them may record a
        flip.

        Bit-identical to ``count`` ``on_activate(row)`` calls: each
        neighbour's value is ``amt`` added one add at a time, as the
        scalar path adds it (one ``count * amt`` add would round
        differently, and distance-1 neighbours also hold fractional
        values). Flips of the last activation are recorded in the
        scalar neighbour order (-1, +1, -2, +2).
        """
        self._check_row(row)
        if count <= 0:
            return
        disturbance = self._disturbance
        disturbance[row] = 0.0
        for neighbour, amount in self._neighbour_amounts(row):
            value = reduce(add, repeat(amount, count), float(disturbance[neighbour]))
            disturbance[neighbour] = value
            if value >= self.t_rh and not self._flipped_this_window[neighbour]:
                self._flipped_this_window[neighbour] = True
                self.flips.append(
                    BitFlipEvent(
                        row=neighbour,
                        window=self.window,
                        disturbance=value,
                        cause="activate",
                    )
                )

    def activations_to_flip(self, row: int, limit: int) -> int:
        """The position (1-based) of the first of the next ``limit``
        single activations of ``row`` that would record a flip, or 0 if
        none would. Changes nothing; builds ``limit``-long lists only
        for a neighbour the run may carry over ``T_RH``."""
        first = 0
        for neighbour, amount in self._neighbour_amounts(row):
            if self._flipped_this_window[neighbour]:
                continue
            start = float(self._disturbance[neighbour])
            # Rounding over up to millions of positive adds stays inside
            # this margin: only a neighbour the run may carry over the
            # threshold needs its exact sums.
            if (start + limit * amount) * (1.0 + 1e-9) < self.t_rh:
                continue
            sums = _running_sums(start, amount, limit)
            hit = max(bisect_left(sums, self.t_rh), 1)
            if hit <= limit and (not first or hit < first):
                first = hit
        return first

    def on_activate_many(self, rows: Iterable[int]) -> None:
        """Order-free bulk form of :meth:`on_activate`: applies every
        activation in ``rows`` at once and records flips afterwards (no
        caller in the package; the attack harnesses use
        :meth:`on_activate_run`, which keeps the scalar float order)."""
        row_array = np.asarray(list(rows), dtype=np.int64)
        if row_array.size == 0:
            return
        if row_array.min() < 0 or row_array.max() >= self.rows:
            raise ValueError("row index out of range")
        counts = np.bincount(row_array, minlength=self.rows).astype(np.float64)
        hammered = counts > 0
        self._disturbance[hammered] = 0.0
        delta = np.zeros(self.rows, dtype=np.float64)
        delta[:-1] += counts[1:]
        delta[1:] += counts[:-1]
        if self.distance2_coupling > 0.0:
            delta[:-2] += counts[2:] * self.distance2_coupling
            delta[2:] += counts[:-2] * self.distance2_coupling
        self._disturbance += delta
        self._record_flips(np.nonzero(delta > 0)[0], "activate")

    def on_refresh_row(self, row: int) -> None:
        """Targeted (mitigative) refresh: restore ``row``, disturb r±1.

        The neighbour disturbance is the Half-Double enabling mechanism;
        it can be disabled to model an idealized refresh with no side
        effects (used as an ablation in the comparison bench).
        """
        self._check_row(row)
        self._disturbance[row] = 0.0
        if self.refresh_disturbs_neighbors:
            self._disturb(row - 1, 1.0, "refresh")
            self._disturb(row + 1, 1.0, "refresh")
            if self.distance2_coupling > 0.0:
                self._disturb(row - 2, self.distance2_coupling, "refresh")
                self._disturb(row + 2, self.distance2_coupling, "refresh")

    def end_window(self) -> None:
        """Periodic auto-refresh: every row's charge is restored."""
        self._disturbance[:] = 0.0
        self._flipped_this_window[:] = False
        self.window += 1

    def refresh_all(self) -> None:
        """Preemptive whole-bank refresh (footnote 2): restore every
        row's charge without advancing the window bookkeeping."""
        self._disturbance[:] = 0.0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def disturbance_of(self, row: int) -> float:
        """Accumulated disturbance of a row in the current window."""
        self._check_row(row)
        return float(self._disturbance[row])

    @property
    def flip_count(self) -> int:
        """Total bit-flip events recorded so far."""
        return len(self.flips)

    def rows_over(self, threshold: float) -> np.ndarray:
        """Physical rows whose current-window disturbance >= threshold."""
        return np.nonzero(self._disturbance >= threshold)[0]

    # ------------------------------------------------------------------
    # Snapshotable (repro.state): flip events travel as plain tuples
    # (the frozen dataclass is rebuilt on restore).
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple:
        return (
            self.window,
            [(e.row, e.window, e.disturbance, e.cause) for e in self.flips],
            self._disturbance.copy(),
            self._flipped_this_window.copy(),
        )

    def restore_state(self, state: tuple) -> None:
        window, flips, disturbance, flipped = state
        self.window = window
        self.flips = [
            BitFlipEvent(row=row, window=w, disturbance=d, cause=cause)
            for row, w, d, cause in flips
        ]
        self._disturbance[:] = disturbance
        self._flipped_this_window[:] = flipped

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.rows:
            raise ValueError(f"row {row} out of range [0, {self.rows})")

    def _neighbour_amounts(self, row: int) -> List[Tuple[int, float]]:
        """(neighbour, per-ACT disturbance) pairs of one activation of
        ``row``, in the order :meth:`on_activate` disturbs them."""
        pairs = [(row - 1, 1.0), (row + 1, 1.0)]
        if self.distance2_coupling > 0.0:
            coupling = self.distance2_coupling
            pairs += [(row - 2, coupling), (row + 2, coupling)]
        return [(r, amount) for r, amount in pairs if 0 <= r < self.rows]

    def _disturb(self, row: int, amount: float, cause: str) -> None:
        if not 0 <= row < self.rows:
            return  # edge rows have fewer neighbours
        self._disturbance[row] += amount
        if (
            self._disturbance[row] >= self.t_rh
            and not self._flipped_this_window[row]
        ):
            self._flipped_this_window[row] = True
            self.flips.append(
                BitFlipEvent(
                    row=row,
                    window=self.window,
                    disturbance=float(self._disturbance[row]),
                    cause=cause,
                )
            )

    def _record_flips(self, touched: np.ndarray, cause: str) -> None:
        over = touched[
            (self._disturbance[touched] >= self.t_rh)
            & ~self._flipped_this_window[touched]
        ]
        for row in over:
            self._flipped_this_window[row] = True
            self.flips.append(
                BitFlipEvent(
                    row=int(row),
                    window=self.window,
                    disturbance=float(self._disturbance[row]),
                    cause=cause,
                )
            )
