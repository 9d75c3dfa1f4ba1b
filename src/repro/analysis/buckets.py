"""Buckets-and-balls Monte Carlo models.

Two uses, both from the paper:

* :class:`BucketsAndBalls` — empirical validation of the Section 5.3
  attack model: throw B balls per window into N buckets and count
  windows until some bucket holds k balls. Full-scale parameters make
  success astronomically rare (that is the point), so tests validate
  the analytic pmf at reduced N/k where Monte Carlo is feasible.
* CAT conflict study (Figure 9): how many installs a CAT with D demand
  ways and E extra ways survives before an install finds both candidate
  sets full. Small E is measured by simulation
  (:func:`cat_installs_until_conflict`); 5-6 extra ways are projected
  with the MIRAGE-style doubly-exponential tail model
  (:func:`mirage_installs_until_conflict`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.utils.rng import DeterministicRng


@dataclass
class BucketsAndBalls:
    """Windowed balls-into-buckets experiment (attack-model validation)."""

    buckets: int
    balls_per_window: int
    target_balls: int
    seed: int = 0

    def windows_until_success(self, max_windows: int = 1_000_000) -> Optional[int]:
        """Windows until some bucket collects ``target_balls``.

        Returns None if it does not happen within ``max_windows``.
        """
        rng = DeterministicRng(self.seed, "bnb").generator
        for window in range(1, max_windows + 1):
            throws = rng.integers(0, self.buckets, size=self.balls_per_window)
            counts = np.bincount(throws, minlength=self.buckets)
            if counts.max() >= self.target_balls:
                return window
        return None

    def success_probability(
        self, trials: int = 200, chunk_draws: int = 1 << 18
    ) -> float:
        """Fraction of single windows in which some bucket reaches k.

        Vectorized: windows are drawn in 2-D chunks, each window's row
        sorted in place, and a window hits when some run of equal
        throws is ``target_balls`` long — in a sorted row ``s`` a
        bucket holds at least k balls if and only if
        ``s[i] == s[i + k - 1]`` for some ``i``. ``Generator.integers``
        fills a ``(n, balls)`` array from the same bit stream as ``n``
        sequential size-``balls`` draws, and for any range below 2**32
        it takes one ``next_uint32`` per draw under Lemire's bound for
        both int32 and int64, so the int32 draws here see exactly the
        throws the scalar (int64) reference produces: bit-identical hit
        counts. (An int16 draw would take 16 bits per value: another
        stream.) The default chunk, 2**18 throws (1 MB of int32), keeps
        the peak memory small and the working set in cache.
        """
        if trials < 1:
            raise ValueError("trials must be positive")
        rng = DeterministicRng(self.seed, "bnb-prob").generator
        buckets = self.buckets
        balls = self.balls_per_window
        k = self.target_balls
        if k <= 0 or k > balls:
            return float(k <= 0)  # no draw can change the outcome
        draw_dtype = np.int32 if buckets <= np.iinfo(np.int32).max else np.int64
        chunk = max(1, chunk_draws // balls)
        hits = 0
        remaining = trials
        while remaining:
            n = chunk if chunk < remaining else remaining
            throws = rng.integers(0, buckets, size=(n, balls), dtype=draw_dtype)
            throws.sort(axis=1)
            runs = throws[:, k - 1 :] == throws[:, : balls - k + 1]
            hits += int(runs.any(axis=1).sum())
            remaining -= n
        return hits / trials

    def success_probability_reference(self, trials: int = 200) -> float:
        """Scalar oracle for :meth:`success_probability` (one window per
        draw call, counted with ``bincount``) — kept for the equivalence
        tests."""
        if trials < 1:
            raise ValueError("trials must be positive")
        rng = DeterministicRng(self.seed, "bnb-prob").generator
        hits = 0
        for _ in range(trials):
            throws = rng.integers(0, self.buckets, size=self.balls_per_window)
            counts = np.bincount(throws, minlength=self.buckets)
            if counts.max() >= self.target_balls:
                hits += 1
        return hits / trials

    def analytic_window_probability(self) -> float:
        """Analytic P(some bucket >= k in one window), union bound on
        the binomial tail — the model Table 4 inverts. Zero when a window
        has fewer balls than the target."""
        if self.target_balls > self.balls_per_window:
            return 0.0
        p = 1.0 / self.buckets
        log_comb = (
            math.lgamma(self.balls_per_window + 1)
            - math.lgamma(self.target_balls + 1)
            - math.lgamma(self.balls_per_window - self.target_balls + 1)
        )
        log_pmf = (
            log_comb
            + self.target_balls * math.log(p)
            + (self.balls_per_window - self.target_balls) * math.log1p(-p)
        )
        return min(1.0, self.buckets * math.exp(log_pmf))


def cat_installs_until_conflict(
    sets: int = 64,
    demand_ways: int = 14,
    extra_ways: int = 1,
    trials: int = 20,
    max_installs: int = 50_000_000,
    seed: int = 0,
) -> float:
    """Monte Carlo: mean installs before a CAT conflict (Figure 9).

    Models the CAT at steady-state capacity: each step installs a new
    item into the less-loaded of two uniformly random sets (one per
    table) and randomly evicts one resident to stay at C = 2*S*D items.
    A conflict is an install that finds both candidate sets full at
    D+E ways.
    """
    if extra_ways < 0 or demand_ways <= 0 or sets <= 0:
        raise ValueError("invalid CAT geometry")
    rng = DeterministicRng(seed, "cat-mc", sets, demand_ways, extra_ways).generator
    ways = demand_ways + extra_ways
    capacity = 2 * sets * demand_ways
    results: List[int] = []
    for _ in range(trials):
        loads = np.zeros(2 * sets, dtype=np.int64)
        # Pre-fill to capacity with balanced random placement.
        occupants = []  # set index of each resident item
        for _ in range(capacity):
            a = int(rng.integers(0, sets))
            b = sets + int(rng.integers(0, sets))
            target = a if loads[a] <= loads[b] else b
            loads[target] += 1
            occupants.append(target)
        installs = 0
        conflict_at = max_installs
        while installs < max_installs:
            installs += 1
            a = int(rng.integers(0, sets))
            b = sets + int(rng.integers(0, sets))
            if loads[a] >= ways and loads[b] >= ways:
                conflict_at = installs
                break
            target = a if loads[a] <= loads[b] else b
            loads[target] += 1
            occupants.append(target)
            # Random eviction keeps occupancy at capacity.
            victim = int(rng.integers(0, len(occupants)))
            loads[occupants[victim]] -= 1
            occupants[victim] = occupants[-1]
            occupants.pop()
        results.append(conflict_at)
    return float(np.mean(results))


def mirage_installs_until_conflict(
    extra_ways: int,
    anchor_extra: int = 3,
    anchor_installs: float = 1.0e4,
) -> float:
    """MIRAGE-style "continued squaring" projection (Figure 9, E=5-6).

    The load-aware (power-of-two-choices) install makes the probability
    of a set exceeding load D+j fall doubly exponentially in j (MIRAGE
    Eqs. 6-7), so installs-to-conflict *squares* with each extra way:

        installs(E) ~ installs(E0) ** (2 ** (E - E0))

    The anchor point comes from the Monte Carlo at a small, measurable
    E (the paper generates E=1-4 by simulation and projects 5-6).
    """
    if extra_ways < anchor_extra:
        raise ValueError("projection only extrapolates above the anchor")
    if anchor_installs <= 1.0:
        raise ValueError("anchor must exceed one install")
    exponent = 2.0 ** (extra_ways - anchor_extra)
    return anchor_installs**exponent
