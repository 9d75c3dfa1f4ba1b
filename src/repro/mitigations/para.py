"""PARA: Probabilistic Adjacent Row Activation (Kim et al., 2014).

The canonical stateless victim-focused mitigation: on every activation,
with probability ``p`` refresh the aggressor's immediate neighbours.
An aggressor activated N times escapes refresh with probability
``(1-p)^N``, so ``p`` is chosen to make surviving T_RH activations
astronomically unlikely.

PARA is victim-focused: it preserves the aggressor/victim spatial
relationship, which is why Half-Double-style patterns defeat it (the
mitigative refreshes themselves disturb rows at distance 2).
"""

from __future__ import annotations

import math

import numpy as np

from repro.mitigations.base import (
    BankKey,
    Mitigation,
    MitigationOutcome,
    NOOP_OUTCOME,
)
from repro.utils.rng import DeterministicRng


class PARA(Mitigation):
    """Stateless probabilistic neighbour refresh."""

    name = "PARA"

    def __init__(
        self,
        probability: float = 0.002,
        blast_radius: int = 1,
        rows_per_bank: int = 128 * 1024,
        seed: int = 0,
    ) -> None:
        if not 0.0 < probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")
        if blast_radius < 1:
            raise ValueError("blast radius must be >= 1")
        self.probability = probability
        self.blast_radius = blast_radius
        self.rows_per_bank = rows_per_bank
        self._rng = DeterministicRng(seed, "para")
        self.refreshes_issued = 0
        # Coin flips are drawn in precomputed blocks: ``_draws`` holds
        # the draws of the coming activations, in order, and ``_hit``
        # indexes the first success among them. Generator.random(n)
        # consumes the bit stream identically to n scalar draws, and
        # every path consumes the block the same way (a block is drawn
        # here and when a success finds none after it), so the state
        # after k activations does not depend on which hook took them.
        self._draws = np.empty(0, dtype=np.float64)
        self._hit = self._next_gap()

    @classmethod
    def for_threshold(
        cls, t_rh: int, failure_probability: float = 1e-15, **kwargs
    ) -> "PARA":
        """Pick ``p`` so an aggressor survives T_RH ACTs un-refreshed
        with at most ``failure_probability``: (1-p)^T_RH <= target."""
        if t_rh <= 0:
            raise ValueError("T_RH must be positive")
        p = 1.0 - math.exp(math.log(failure_probability) / t_rh)
        return cls(probability=min(1.0, p), **kwargs)

    def on_activation(
        self, bank_key: BankKey, row: int, physical_row: int, now_ns: float
    ) -> MitigationOutcome:
        """Coin-flip a neighbour refresh for this activation."""
        self._draws = self._draws[1:]
        if self._hit:
            self._hit -= 1
            return NOOP_OUTCOME
        self._hit = self._next_gap()
        victims = [
            physical_row + offset
            for distance in range(1, self.blast_radius + 1)
            for offset in (-distance, distance)
            if 0 <= physical_row + offset < self.rows_per_bank
        ]
        self.refreshes_issued += len(victims)
        return MitigationOutcome(refresh_rows=victims)

    # ------------------------------------------------------------------
    # Run contract (attack harnesses): the draws before the next success
    # are misses whatever the bank and row.
    # ------------------------------------------------------------------
    _CHUNK = 4096

    def run_credit(self, bank_key, row, physical_row, now_ns):
        """Draws left before the next success."""
        return self._hit

    def on_activation_run(self, bank_key, row, physical_row, count):
        """Consume ``count`` credited misses."""
        self._draws = self._draws[count:]
        self._hit -= count

    # ------------------------------------------------------------------
    # Snapshotable (repro.state): the PCG64 stream position and the
    # precomputed draws still ahead.
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple:
        return (
            self._rng.snapshot_state(),
            self.refreshes_issued,
            self._draws.copy(),
            self._hit,
        )

    def restore_state(self, state: tuple) -> None:
        rng_state, refreshes_issued, draws, hit = state
        self._rng.restore_state(rng_state)
        self.refreshes_issued = refreshes_issued
        self._draws = draws.copy()
        self._hit = hit

    def _next_gap(self) -> int:
        """Draws until (excluding) the next success, extending the
        precomputed block as needed."""
        searched = 0
        while True:
            hits = np.nonzero(self._draws[searched:] < self.probability)[0]
            if hits.size:
                self._hit = searched + int(hits[0])
                return self._hit
            searched = len(self._draws)
            more = self._rng.generator.random(self._CHUNK)
            self._draws = np.concatenate([self._draws, more])
