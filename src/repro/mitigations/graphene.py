"""Graphene (Park et al., MICRO 2020): Misra-Gries tracked victim refresh.

The state-of-the-art precise victim-focused mitigation and the source
of the tracker RRS reuses. A per-bank Misra-Gries tracker counts
activations; whenever a row's estimate crosses a multiple of the
mitigation threshold, its immediate neighbours are refreshed.

Against classic Row Hammer this is airtight (the tracker cannot
undercount). Against Half-Double it fails structurally: the refreshes
it issues are themselves activations of the far aggressor, and the
tracker never sees them — the blind spot the paper's Figure 1(c)
illustrates and our Table 7 bench reproduces.
"""

from __future__ import annotations

from typing import Dict

from repro.mitigations.base import (
    BankKey,
    MitigationOutcome,
    NOOP_OUTCOME,
    tracker_run_credit,
)
from repro.mitigations.batching import BankBatchedMitigation
from repro.track.array_state import ArrayMisraGries


class Graphene(BankBatchedMitigation):
    """Per-bank Misra-Gries tracking + neighbour refresh.

    A ``BankBatchedMitigation`` because ``batch_scope = "bank"`` is what
    makes the compiled loop ask for :meth:`hot_row_tracker`; every armed
    bank is then C-tracked, so no bank takes the deferral hooks."""

    name = "Graphene"

    def __init__(
        self,
        t_rh: int = 4800,
        mitigation_threshold: int = 0,
        window_activations: int = 1_360_000,
        blast_radius: int = 1,
        rows_per_bank: int = 128 * 1024,
    ) -> None:
        # Graphene refreshes victims when the aggressor estimate hits
        # T_RH/2, guaranteeing <T_RH activations between refreshes of
        # any victim.
        self.t_rh = t_rh
        self.threshold = mitigation_threshold or max(1, t_rh // 2)
        self.window_activations = window_activations
        self.blast_radius = blast_radius
        self.rows_per_bank = rows_per_bank
        self.refreshes_issued = 0
        # Array-state HRT (defined lowest-slot tie-break; the reference
        # set-based tracker remains the oracle for invariant tests —
        # Invariant 1 holds under any tie-break).
        self._trackers: Dict[BankKey, ArrayMisraGries] = {}

    def _tracker(self, bank_key: BankKey) -> ArrayMisraGries:
        tracker = self._trackers.get(bank_key)
        if tracker is None:
            tracker = ArrayMisraGries.sized_for(
                self.window_activations, self.threshold
            )
            self._trackers[bank_key] = tracker
        return tracker

    def on_activation(
        self, bank_key: BankKey, row: int, physical_row: int, now_ns: float
    ) -> MitigationOutcome:
        """Refresh neighbours on each threshold multiple."""
        tracker = self._tracker(bank_key)
        estimate = tracker.observe(physical_row)
        # Hardware equality comparison: mitigate when the counter lands
        # exactly on a threshold multiple (installs that jump past a
        # multiple are caught at the next one).
        if estimate == 0 or estimate % self.threshold != 0:
            return NOOP_OUTCOME
        return self.on_hot_row(bank_key, physical_row, now_ns, tracker.__contains__)

    def on_hot_row(self, bank_key, row, now_ns, tracked):
        """Refresh the row's neighbours (the compiled loop calls this
        directly). Graphene never routes, so ``row`` is physical."""
        victims = [
            row + offset
            for distance in range(1, self.blast_radius + 1)
            for offset in (-distance, distance)
            if 0 <= row + offset < self.rows_per_bank
        ]
        self.refreshes_issued += len(victims)
        return MitigationOutcome(refresh_rows=victims)

    def hot_row_tracker(self, bank_key):
        """The bank's array tracker and threshold, for the compiled loop."""
        return self._tracker(bank_key), self.threshold

    def on_window_end(self, window_index: int) -> None:
        """Tracker state is per refresh window."""
        for tracker in self._trackers.values():
            tracker.reset()

    # ------------------------------------------------------------------
    # Run contract (attack harnesses): the physical row's own counter
    # ------------------------------------------------------------------
    def run_credit(self, bank_key, row, physical_row, now_ns):
        tracker = self._trackers.get(bank_key)
        if tracker is None:
            return 0
        return tracker_run_credit(tracker, physical_row, self.threshold)

    def on_activation_run(self, bank_key, row, physical_row, count):
        """Credited activations: the tracker counts the physical row."""
        self._tracker(bank_key).observe_run(physical_row, count)

    # ------------------------------------------------------------------
    # Snapshotable (repro.state)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple:
        return (
            self.refreshes_issued,
            {
                key: tracker.snapshot_state()
                for key, tracker in self._trackers.items()
            },
        )

    def restore_state(self, state: tuple) -> None:
        refreshes_issued, trackers = state
        self.refreshes_issued = refreshes_issued
        self._trackers = {}
        for key, tracker_state in trackers.items():
            tracker = ArrayMisraGries.sized_for(
                self.window_activations, self.threshold
            )
            tracker.restore_state(tracker_state)
            self._trackers[key] = tracker

    def storage_bits_per_bank(self, rows_per_bank: int) -> int:
        """Tracker entries x (row id + counter + valid)."""
        entries = max(1, self.window_activations // self.threshold)
        row_bits = (rows_per_bank - 1).bit_length()
        counter_bits = max(1, self.t_rh).bit_length()
        return entries * (row_bits + counter_bits + 1)
