"""Bank model: timing state + activation totals + optional
disturbance (fault) model.

The bank is the unit every Row Hammer quantity in the paper is defined
over: ACT_max is per bank per 64 ms, swaps pick destinations within the
bank, and the adaptive attack randomizes over the 128K rows of one bank.
"""

from __future__ import annotations

from typing import Optional

from repro.dram.config import DRAMConfig
from repro.dram.faults import DisturbanceModel
from repro.dram.timing import AccessOutcome, BankTimingState


class Bank:
    """One DRAM bank: row buffer, timing, activation totals, faults.

    The bank keeps no per-row activation count: the defenses keep their
    own trackers, and ``repro.obs`` counts ACTs per row in its request
    probe."""

    __slots__ = (
        "config",
        "channel",
        "rank",
        "index",
        "timing",
        "disturbance",
        "total_activations",
        "windows_elapsed",
        "_rows_per_bank",
    )

    def __init__(
        self,
        config: DRAMConfig,
        channel: int = 0,
        rank: int = 0,
        index: int = 0,
        disturbance: Optional[DisturbanceModel] = None,
    ) -> None:
        self.config = config
        self.channel = channel
        self.rank = rank
        self.index = index
        self.timing = BankTimingState(config=config)
        self.disturbance = disturbance
        self.total_activations = 0
        self.windows_elapsed = 0
        self._rows_per_bank = config.rows_per_bank

    # ------------------------------------------------------------------
    # Data-path events
    # ------------------------------------------------------------------
    def access(self, row: int, now_ns: float) -> AccessOutcome:
        """Column access to ``row``; records an ACT on row-buffer miss.

        Runs once per serviced request: the row check and activation
        accounting are inlined rather than delegated to the helper
        methods the colder entry points use.
        """
        if not 0 <= row < self._rows_per_bank:
            raise ValueError(
                f"row {row} out of range [0, {self._rows_per_bank})"
            )
        outcome = self.timing.access(row, now_ns)
        if outcome.activated:
            self.total_activations += 1
            if self.disturbance is not None:
                self.disturbance.on_activate(row)
        return outcome

    def activate(self, row: int, now_ns: float = 0.0) -> float:
        """Explicit ACT (attack drivers, swap streaming); returns time."""
        self._check_row(row)
        act_at = self.timing.activate_only(row, now_ns)
        self._note_activation(row)
        return act_at

    def refresh_row(self, row: int) -> None:
        """Targeted mitigative refresh of a physical row."""
        self._check_row(row)
        if self.disturbance is not None:
            self.disturbance.on_refresh_row(row)

    def end_window(self) -> None:
        """Refresh-window rollover: charge restored."""
        self.windows_elapsed += 1
        if self.disturbance is not None:
            self.disturbance.end_window()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def key(self) -> tuple:
        """Hashable bank identity (channel, rank, index)."""
        return (self.channel, self.rank, self.index)

    @property
    def kernel_inlineable(self) -> bool:
        """Whether the compiled block loop may run this bank on its flat
        timing arrays: nothing is watching the command stream and no
        fault model needs per-ACT callbacks. A run with any observed or
        faulted bank takes the scalar loop, so every command still
        reaches its consumers."""
        return self.timing.observer is None and self.disturbance is None

    # ------------------------------------------------------------------
    # Snapshotable (repro.state). The disturbance model is snapshotted
    # by its own protocol implementation (the device owns that
    # round-trip); the bank covers timing plus activation totals.
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple:
        return (
            self.timing.snapshot_state(),
            self.total_activations,
            self.windows_elapsed,
        )

    def restore_state(self, state: tuple) -> None:
        timing_state, total_activations, windows_elapsed = state
        self.timing.restore_state(timing_state)
        self.total_activations = total_activations
        self.windows_elapsed = windows_elapsed

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.config.rows_per_bank:
            raise ValueError(
                f"row {row} out of range [0, {self.config.rows_per_bank})"
            )

    def _note_activation(self, row: int) -> None:
        self.total_activations += 1
        if self.disturbance is not None:
            self.disturbance.on_activate(row)
