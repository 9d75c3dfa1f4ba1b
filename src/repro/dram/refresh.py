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
    ) -> None:
        self.config = config
        self.channels = channels
        self.window_callbacks = list(window_callbacks or [])
        self._next_refi_ns = float(config.t_refi)
        self._next_window_ns = float(config.refresh_window_ns)
        # Earliest time any refresh event is due: callers on the hot
        # path compare against this before paying for advance_to().
        self.next_due_ns = min(self._next_refi_ns, self._next_window_ns)
        self.refresh_bursts = 0
        self.windows_completed = 0
        # Optional hook called with (start_ns, bursts) whenever refresh
        # executes — one REF per tREFI, so bursts is always 1 — the
        # cadence check of repro.check.sanitizer and the `refresh`
        # trace category of repro.obs (chained when both are
        # installed). Observers read state only; they never reschedule.
        self.observer = None

    @property
    def current_window(self) -> int:
        """Index of the refresh window containing the current time."""
        return self.windows_completed

    def advance_to(self, now_ns: float) -> None:
        """Apply every refresh event scheduled at or before ``now``."""
        while self._next_refi_ns <= now_ns:
            start = self._next_refi_ns
            if self.observer is not None:
                self.observer(start, 1)
            for channel in self.channels:
                for rank in channel.ranks:
                    rank.block_for_refresh(start)
            self.refresh_bursts += 1
            self._next_refi_ns += self.config.t_refi
        self._advance_windows(now_ns)
        self.next_due_ns = min(self._next_refi_ns, self._next_window_ns)

    # ------------------------------------------------------------------
    # Snapshotable (repro.state): schedule cursors and counters; the
    # channels restore themselves through their own protocol.
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple:
        return (
            self._next_refi_ns,
            self._next_window_ns,
            self.next_due_ns,
            self.refresh_bursts,
            self.windows_completed,
        )

    def restore_state(self, state: tuple) -> None:
        (
            self._next_refi_ns,
            self._next_window_ns,
            self.next_due_ns,
            self.refresh_bursts,
            self.windows_completed,
        ) = state

    def _advance_windows(self, now_ns: float) -> None:
        while self._next_window_ns <= now_ns:
            for channel in self.channels:
                channel.end_window()
            for callback in self.window_callbacks:
                callback(self.windows_completed)
            self.windows_completed += 1
            self._next_window_ns += self.config.refresh_window_ns
