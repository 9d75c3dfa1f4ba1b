"""Periodic refresh scheduling.

Two granularities, matching how the paper reasons about refresh:

* **tREFI/tRFC**: every 7.8 us each rank performs one refresh burst that
  blocks it for 350 ns — this is the ~4.5% duty-cycle tax baked into
  ACT_max = 1.36 M activations per 64 ms.
* **Refresh window (64 ms)**: every row's charge is restored once per
  window, so disturbance accounting and the defenses' per-window state
  reset at window boundaries (the paper's "epoch").
"""

from __future__ import annotations

from typing import List

from repro.dram.config import DRAMConfig
from repro.dram.device import Channel


class RefreshScheduler:
    """Advances refresh state for a set of channels as sim time moves.

    ``window_callbacks`` are invoked with the completed window's index
    at every refresh-window boundary, after every channel's
    ``end_window`` — the hook mitigations use for epoch rollover (HRT
    reset, RIT lock-bit clearing) and obs for its per-window series.
    """

    def __init__(
        self,
        config: DRAMConfig,
        channels: List[Channel],
        window_callbacks: list = None,
        max_postponed: int = 0,
    ) -> None:
        if max_postponed < 0 or max_postponed > 8:
            raise ValueError("DDR4 allows postponing at most 8 refreshes")
        self.config = config
        self.channels = channels
        self.window_callbacks = list(window_callbacks or [])
        # DDR4 refresh flexibility: up to 8 REF commands may be
        # postponed while a rank is busy, paid back as a burst later.
        self.max_postponed = max_postponed
        self.postponed = 0
        self.postponements = 0
        self._next_refi_ns = float(config.t_refi)
        self._next_window_ns = float(config.refresh_window_ns)
        # Earliest time any refresh event is due: callers on the hot
        # path compare against this before paying for advance_to().
        self.next_due_ns = min(self._next_refi_ns, self._next_window_ns)
        self.refresh_bursts = 0
        self.windows_completed = 0
        # Optional hook called with (start_ns, bursts) whenever refresh
        # executes — the cadence check of repro.check.sanitizer and the
        # `refresh` trace category of repro.obs (chained when both are
        # installed). Observers read state only; they never reschedule.
        self.observer = None

    @property
    def current_window(self) -> int:
        """Index of the refresh window containing the current time."""
        return self.windows_completed

    def advance_to(self, now_ns: float) -> None:
        """Apply every refresh event scheduled at or before ``now``."""
        while self._next_refi_ns <= now_ns:
            if self.max_postponed and self.postponed < self.max_postponed and (
                self._rank_busy_at(self._next_refi_ns)
            ):
                self.postponed += 1
                self.postponements += 1
            else:
                # Pay back any postponed refreshes as a burst.
                bursts = 1 + self.postponed
                self.postponed = 0
                start = self._next_refi_ns
                if self.observer is not None:
                    self.observer(start, bursts)
                for _ in range(bursts):
                    for channel in self.channels:
                        for rank in channel.ranks:
                            rank.block_for_refresh(start)
                    self.refresh_bursts += 1
                    start += self.config.t_rfc
            self._next_refi_ns += self.config.t_refi
        self._advance_windows(now_ns)
        self.next_due_ns = min(self._next_refi_ns, self._next_window_ns)

    # ------------------------------------------------------------------
    # Snapshotable (repro.state): schedule cursors and counters; the
    # channels restore themselves through their own protocol.
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple:
        return (
            self.postponed,
            self.postponements,
            self._next_refi_ns,
            self._next_window_ns,
            self.next_due_ns,
            self.refresh_bursts,
            self.windows_completed,
        )

    def restore_state(self, state: tuple) -> None:
        (
            self.postponed,
            self.postponements,
            self._next_refi_ns,
            self._next_window_ns,
            self.next_due_ns,
            self.refresh_bursts,
            self.windows_completed,
        ) = state

    def _rank_busy_at(self, time_ns: float) -> bool:
        """True when any bank has work scheduled past ``time_ns``."""
        return any(
            bank.timing.ready_ns > time_ns
            for channel in self.channels
            for bank in channel.iter_banks()
        )

    def _advance_windows(self, now_ns: float) -> None:
        while self._next_window_ns <= now_ns:
            for channel in self.channels:
                channel.end_window()
            for callback in self.window_callbacks:
                callback(self.windows_completed)
            self.windows_completed += 1
            self._next_window_ns += self.config.refresh_window_ns
