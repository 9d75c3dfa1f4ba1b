"""Refresh scheduling: tREFI bursts and window rollover callbacks."""

from repro.dram.device import Channel
from repro.dram.refresh import RefreshScheduler


def test_refi_bursts_fire_on_schedule(small_dram):
    channels = [Channel(small_dram)]
    scheduler = RefreshScheduler(small_dram, channels)
    scheduler.advance_to(10 * small_dram.t_refi)
    assert scheduler.refresh_bursts == 10


def test_busy_bank_is_refreshed_every_trefi(small_dram):
    """A REF is never postponed: a bank busy past four tREFI boundaries
    still takes one burst at each, and the observer sees each burst at
    its own tREFI."""
    channels = [Channel(small_dram)]
    scheduler = RefreshScheduler(small_dram, channels)
    seen = []
    scheduler.observer = lambda start_ns, bursts: seen.append((start_ns, bursts))
    channels[0].bank(0, 0).timing.block_until(10 * small_dram.t_refi)
    scheduler.advance_to(4 * small_dram.t_refi)
    assert scheduler.refresh_bursts == 4
    assert seen == [(float(i * small_dram.t_refi), 1) for i in range(1, 5)]


def test_refresh_blocks_banks(small_dram):
    channels = [Channel(small_dram)]
    scheduler = RefreshScheduler(small_dram, channels)
    scheduler.advance_to(small_dram.t_refi)
    bank = channels[0].bank(0, 0)
    outcome = bank.access(row=0, now_ns=small_dram.t_refi)
    assert outcome.start_ns >= small_dram.t_refi + small_dram.t_rfc


def test_window_rollover_and_callbacks(small_dram):
    seen = []
    channels = [Channel(small_dram)]
    scheduler = RefreshScheduler(
        small_dram, channels, window_callbacks=[seen.append]
    )
    bank = channels[0].bank(0, 0)
    bank.activate(1)
    scheduler.advance_to(2 * small_dram.refresh_window_ns)
    assert scheduler.windows_completed == 2
    assert seen == [0, 1]
    assert bank.windows_elapsed == 2


def test_advance_is_idempotent_for_same_time(small_dram):
    channels = [Channel(small_dram)]
    scheduler = RefreshScheduler(small_dram, channels)
    scheduler.advance_to(5 * small_dram.t_refi)
    bursts = scheduler.refresh_bursts
    scheduler.advance_to(5 * small_dram.t_refi)
    assert scheduler.refresh_bursts == bursts
