"""Classic Row Hammer access patterns (paper Figure 1 and Section 2.5).

Each attack is an infinite iterator of logical rows for the
:class:`AttackHarness`. A pattern defines its stream once, as a cycle
of ``(row, length)`` runs; ``rows()`` returns a :class:`RowRuns`
iterator over that cycle, which also reads "up to ``limit`` more copies
of this row" in one step per run instead of one ``next`` per row — the
harness charges a credited run with that answer. Patterns:

* **Single-sided**: hammer one aggressor; victims are its neighbours.
* **Double-sided**: alternate the two rows sandwiching the victim —
  the victim collects disturbance from both sides, halving the needed
  per-aggressor activations.
* **Many-sided**: cycle over N aggressors (the TRRespass family),
  designed to overwhelm sampling-based TRR trackers.
* **Half-Double**: hammer the *near* aggressor (distance 2 from the
  victim) so victim-focused mitigation keeps refreshing the *far*
  aggressor (distance 1) — each refresh is an activation of the far
  aggressor, and a light direct "dosing" of the far aggressor tops it
  up. Bit flips land beyond the defended blast radius.
"""

from __future__ import annotations

import sys
from typing import List, Optional, Sequence, Tuple


class RowRuns:
    """Infinite row stream cycling over ``(row, length)`` runs.

    Iterating yields each run's row ``length`` times, cycling forever.
    :meth:`read_run` reads the copies of a row that come next in one
    step per run, leaving the stream exactly where as many ``next``
    calls would. Runs of length 0 are dropped and adjacent runs of one
    row merged; a cycle of a single row is one endless run.
    """

    __slots__ = ("_runs", "_index", "_row", "_left")

    def __init__(self, runs: Sequence[Tuple[int, int]]) -> None:
        merged: List[List[int]] = []
        for row, length in runs:
            if length < 0:
                raise ValueError("run lengths must be non-negative")
            if length == 0:
                continue
            if merged and merged[-1][0] == row:
                merged[-1][1] += length
            else:
                merged.append([row, length])
        if not merged:
            raise ValueError("a row stream needs at least one run")
        if all(row == merged[0][0] for row, _ in merged):
            # One row forever: a run that never ends in practice (its
            # refill after sys.maxsize reads is the same row anyway).
            merged = [[merged[0][0], sys.maxsize]]
        self._runs = tuple((row, length) for row, length in merged)
        self._index = 0
        self._row, self._left = self._runs[0]

    def __iter__(self) -> "RowRuns":
        return self

    def __next__(self) -> int:
        row = self._row
        left = self._left
        if left > 1:
            self._left = left - 1
        else:
            index = self._index + 1
            if index == len(self._runs):
                index = 0
            self._index = index
            self._row, self._left = self._runs[index]
        return row

    def read_run(self, row: int, limit: int) -> "Tuple[int, Optional[int]]":
        """Read up to ``limit - 1`` more copies of ``row``.

        Same contract as a one-row-at-a-time read: returns ``(run
        length, next row)``, where the run counts ``row`` itself and the
        next row is the first different one read, or None when the run
        reached ``limit`` and nothing more was read.
        """
        count = 1
        while count < limit:
            head = self._row
            left = self._left
            want = limit - count
            if head == row:
                if left > want:
                    self._left = left - want
                    return limit, None
                count += left
            elif left > 1:  # the next row differs: read it
                self._left = left - 1
                return count, head
            index = self._index + 1
            if index == len(self._runs):
                index = 0
            self._index = index
            self._row, self._left = self._runs[index]
            if head != row:
                return count, head
        return count, None


class SingleSidedAttack:
    """Classic single-aggressor hammering."""

    def __init__(self, aggressor: int) -> None:
        if aggressor < 0:
            raise ValueError("aggressor row must be non-negative")
        self.aggressor = aggressor

    def rows(self) -> RowRuns:
        """Infinite stream of the aggressor row."""
        return RowRuns([(self.aggressor, 1)])

    @property
    def victims(self) -> Sequence[int]:
        """Rows the pattern aims to flip."""
        return (self.aggressor - 1, self.aggressor + 1)


class DoubleSidedAttack:
    """Sandwich hammering of victim-1 / victim+1."""

    def __init__(self, victim: int) -> None:
        if victim < 1:
            raise ValueError("victim needs aggressors on both sides")
        self.victim = victim

    def rows(self) -> RowRuns:
        """Alternating stream of the two aggressors."""
        return RowRuns([(self.victim - 1, 1), (self.victim + 1, 1)])

    @property
    def victims(self) -> Sequence[int]:
        """The sandwiched row."""
        return (self.victim,)


class ManySidedAttack:
    """TRRespass-style rotation over many aggressors."""

    def __init__(self, aggressors: Sequence[int]) -> None:
        if len(aggressors) < 2:
            raise ValueError("many-sided attack needs several aggressors")
        self.aggressors = list(aggressors)

    def rows(self) -> RowRuns:
        """Round-robin over the aggressor set."""
        return RowRuns([(row, 1) for row in self.aggressors])

    @property
    def victims(self) -> Sequence[int]:
        """Neighbours of every aggressor."""
        out = []
        for a in self.aggressors:
            out.extend((a - 1, a + 1))
        return tuple(out)


class HalfDoubleAttack:
    """The Google Half-Double pattern (paper Figure 1(c)).

    Victim V, far aggressor F = V+1, near aggressor N = V+2. The near
    aggressor is hammered continuously; every ``dose_interval``
    activations the far aggressor gets one direct activation. The bulk
    of F's effective activations comes from the defense's own
    mitigative refreshes of F (triggered by N's hammering).
    """

    def __init__(self, victim: int, dose_interval: int = 64) -> None:
        if victim < 0:
            raise ValueError("victim row must be non-negative")
        if dose_interval < 1:
            raise ValueError("dose interval must be positive")
        self.victim = victim
        self.far = victim + 1
        self.near = victim + 2
        self.dose_interval = dose_interval

    def rows(self) -> RowRuns:
        """Hammer near; trickle far every ``dose_interval`` ACTs."""
        return RowRuns([(self.near, self.dose_interval - 1), (self.far, 1)])

    @property
    def victims(self) -> Sequence[int]:
        """The distance-2 target."""
        return (self.victim,)
