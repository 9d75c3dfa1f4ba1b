"""Targeted Row Refresh (TRR): the in-DRAM sampling mitigation.

The defense shipped in real DDR4/LPDDR4 devices: the DRAM samples
activations between refresh commands and, at each tREFI opportunity,
refreshes the neighbours of the hottest sampled row. Frequent neighbour
refreshes make TRR very strong against classic single-/double-sided
hammering — and are precisely the amplification channel Half-Double
weaponizes: continuously hammering a near-aggressor makes TRR refresh
the far aggressor at every tREFI, ~8200 refresh-activations per 64 ms
window, enough to flip bits two rows away. This module exists so the
Table 7 / Figure 1 benches can reproduce that published break.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

from repro.mitigations.base import (
    BankKey,
    Mitigation,
    MitigationOutcome,
    NOOP_OUTCOME,
)


class TargetedRowRefresh(Mitigation):
    """Sampling + per-tREFI neighbour refresh (in-DRAM TRR)."""

    name = "TRR"

    def __init__(
        self,
        t_refi_ns: int = 7_800,
        sample_size: int = 16,
        blast_radius: int = 1,
        rows_per_bank: int = 128 * 1024,
    ) -> None:
        self.t_refi_ns = t_refi_ns
        self.sample_size = sample_size
        self.blast_radius = blast_radius
        self.rows_per_bank = rows_per_bank
        self.refreshes_issued = 0
        self._samples: Dict[BankKey, Counter] = {}
        self._next_trr_ns: Dict[BankKey, float] = {}

    def on_activation(
        self, bank_key: BankKey, row: int, physical_row: int, now_ns: float
    ) -> MitigationOutcome:
        """Sample the ACT; at tREFI boundaries refresh the hottest row's
        neighbours."""
        sample = self._samples.setdefault(bank_key, Counter())
        if len(sample) < self.sample_size or physical_row in sample:
            sample[physical_row] += 1
        next_trr = self._next_trr_ns.get(bank_key, float(self.t_refi_ns))
        if now_ns < next_trr:
            return NOOP_OUTCOME
        self._next_trr_ns[bank_key] = now_ns + self.t_refi_ns
        if not sample:
            return NOOP_OUTCOME
        aggressor, _ = sample.most_common(1)[0]
        sample.clear()
        victims = [
            aggressor + offset
            for distance in range(1, self.blast_radius + 1)
            for offset in (-distance, distance)
            if 0 <= aggressor + offset < self.rows_per_bank
        ]
        self.refreshes_issued += len(victims)
        return MitigationOutcome(refresh_rows=victims)

    # ------------------------------------------------------------------
    # Snapshotable (repro.state): samples are captured as ordered pairs
    # because Counter insertion order is the ``most_common`` tie-break.
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple:
        return (
            self.refreshes_issued,
            {key: list(sample.items()) for key, sample in self._samples.items()},
            dict(self._next_trr_ns),
        )

    def restore_state(self, state: tuple) -> None:
        refreshes_issued, samples, next_trr = state
        self.refreshes_issued = refreshes_issued
        self._samples = {}
        for key, pairs in samples.items():
            sample = Counter()
            for row, hits in pairs:
                sample[row] = hits
            self._samples[key] = sample
        self._next_trr_ns = dict(next_trr)
