"""DDR4 postponed-refresh flexibility and the closed-page policy."""

import pytest

from repro.dram.bank import Bank
from repro.dram.config import DRAMConfig
from repro.dram.device import Channel
from repro.dram.refresh import RefreshScheduler


class TestPostponedRefresh:
    def test_busy_rank_postpones(self, small_dram):
        channels = [Channel(small_dram)]
        scheduler = RefreshScheduler(small_dram, channels, max_postponed=8)
        # Keep the bank busy across the first tREFI boundary.
        channels[0].bank(0, 0).timing.block_until(2 * small_dram.t_refi)
        scheduler.advance_to(small_dram.t_refi)
        assert scheduler.postponed == 1
        assert scheduler.refresh_bursts == 0

    def test_payback_bursts(self, small_dram):
        channels = [Channel(small_dram)]
        scheduler = RefreshScheduler(small_dram, channels, max_postponed=8)
        channels[0].bank(0, 0).timing.block_until(2.5 * small_dram.t_refi)
        # Two postponements while busy, then payback when idle.
        scheduler.advance_to(3 * small_dram.t_refi)
        assert scheduler.refresh_bursts == 3  # 1 due + 2 postponed
        assert scheduler.postponed == 0

    def test_postponement_cap(self, small_dram):
        channels = [Channel(small_dram)]
        scheduler = RefreshScheduler(small_dram, channels, max_postponed=2)
        channels[0].bank(0, 0).timing.block_until(100 * small_dram.t_refi)
        scheduler.advance_to(5 * small_dram.t_refi)
        # Only 2 can be postponed; the rest execute despite busyness.
        assert scheduler.postponed <= 2
        assert scheduler.refresh_bursts >= 3

    def test_disabled_by_default(self, small_dram):
        channels = [Channel(small_dram)]
        scheduler = RefreshScheduler(small_dram, channels)
        channels[0].bank(0, 0).timing.block_until(10 * small_dram.t_refi)
        scheduler.advance_to(4 * small_dram.t_refi)
        assert scheduler.refresh_bursts == 4
        assert scheduler.postponements == 0

    def test_validation(self, small_dram):
        with pytest.raises(ValueError):
            RefreshScheduler(small_dram, [Channel(small_dram)], max_postponed=9)


class TestClosedPagePolicy:
    def _config(self):
        return DRAMConfig(
            channels=1,
            banks_per_rank=4,
            rows_per_bank=1024,
            row_size_bytes=1024,
            page_policy="closed",
        )

    def test_no_row_buffer_hits(self):
        bank = Bank(self._config())
        first = bank.access(row=5, now_ns=0.0)
        second = bank.access(row=5, now_ns=first.data_ns)
        assert not second.row_buffer_hit  # auto-precharged after burst

    def test_every_access_activates(self):
        bank = Bank(self._config())
        now = 0.0
        for _ in range(5):
            outcome = bank.access(row=5, now_ns=now)
            now = outcome.data_ns
        assert bank.total_activations == 5

    def test_closed_page_conflict_is_cheaper_than_open_page_conflict(self):
        """Closed page pre-pays tRP, so a conflicting access skips it."""
        open_bank = Bank(
            DRAMConfig(
                channels=1, banks_per_rank=4, rows_per_bank=1024,
                row_size_bytes=1024, page_policy="open",
            )
        )
        closed_bank = Bank(self._config())
        for bank in (open_bank, closed_bank):
            bank.access(row=1, now_ns=0.0)
        t = 200.0  # past tRP either way; tRC satisfied
        open_conflict = open_bank.access(row=2, now_ns=t)
        closed_conflict = closed_bank.access(row=2, now_ns=t)
        assert closed_conflict.data_ns < open_conflict.data_ns

    def test_policy_validated(self):
        with pytest.raises(ValueError):
            DRAMConfig(page_policy="half-open")

    def test_scaled_preserves_policy(self):
        assert self._config().scaled(4).page_policy == "closed"
