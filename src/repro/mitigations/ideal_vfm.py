"""Idealized victim-focused mitigation (paper Table 7's comparator).

Perfect tracking (exact per-row activation counts, no storage limits,
no estimation error) with neighbour refresh every ``threshold``
activations. This is the *strongest possible* victim-focused defense:
if Half-Double defeats this, it defeats every real tracker-based VFM —
which is exactly the paper's structural argument, since the failure is
in the mitigating action (refreshes preserve aggressor/victim
adjacency and themselves disturb at distance 2), not in the tracking.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

from repro.mitigations.base import BankKey, Mitigation, MitigationOutcome, NOOP_OUTCOME


class IdealVictimRefresh(Mitigation):
    """Oracle tracker + neighbour refresh."""

    name = "Ideal-VFM"

    def __init__(
        self,
        t_rh: int = 4800,
        mitigation_threshold: int = 0,
        blast_radius: int = 1,
        rows_per_bank: int = 128 * 1024,
        neighbors=None,
    ) -> None:
        self.t_rh = t_rh
        self.threshold = mitigation_threshold or max(1, t_rh // 2)
        self.blast_radius = blast_radius
        self.rows_per_bank = rows_per_bank
        # Optional vendor-disclosed adjacency function (controller row
        # -> iterable of controller rows that are physical neighbours);
        # defaults to +-distance arithmetic, which is only correct when
        # the DRAM's internal mapping is linear.
        self.neighbors = neighbors
        self.refreshes_issued = 0
        self._counts: Dict[BankKey, Counter] = {}

    def on_activation(
        self, bank_key: BankKey, row: int, physical_row: int, now_ns: float
    ) -> MitigationOutcome:
        """Exact counting; refresh neighbours at every threshold multiple."""
        counts = self._counts.setdefault(bank_key, Counter())
        counts[physical_row] += 1
        if counts[physical_row] % self.threshold != 0:
            return NOOP_OUTCOME
        if self.neighbors is not None:
            victims = [
                v for v in self.neighbors(physical_row)
                if 0 <= v < self.rows_per_bank
            ]
        else:
            victims = [
                physical_row + offset
                for distance in range(1, self.blast_radius + 1)
                for offset in (-distance, distance)
                if 0 <= physical_row + offset < self.rows_per_bank
            ]
        self.refreshes_issued += len(victims)
        return MitigationOutcome(refresh_rows=victims)

    def run_credit(self, bank_key, row, physical_row, now_ns):
        """Activations of ``physical_row`` before its count next lands
        on a threshold multiple."""
        counts = self._counts.get(bank_key)
        hits = 0 if counts is None else counts.get(physical_row, 0)
        return self.threshold - hits % self.threshold - 1

    def on_activation_run(self, bank_key, row, physical_row, count):
        self._counts.setdefault(bank_key, Counter())[physical_row] += count

    def on_window_end(self, window_index: int) -> None:
        """Counts are per refresh window."""
        self._counts.clear()

    # ------------------------------------------------------------------
    # Snapshotable (repro.state)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple:
        return (
            self.refreshes_issued,
            {key: list(counts.items()) for key, counts in self._counts.items()},
        )

    def restore_state(self, state: tuple) -> None:
        refreshes_issued, counts = state
        self.refreshes_issued = refreshes_issued
        self._counts = {}
        for key, pairs in counts.items():
            bank = Counter()
            for row, hits in pairs:
                bank[row] = hits
            self._counts[key] = bank
