"""Rank/channel composition: refresh blocking and channel stalls."""

from repro.dram.device import Channel, Rank


def test_rank_owns_all_banks(small_dram):
    rank = Rank(small_dram)
    assert len(rank.banks) == small_dram.banks_per_rank


def test_refresh_blocks_every_bank(small_dram):
    rank = Rank(small_dram)
    end = rank.block_for_refresh(1000.0)
    assert end == 1000.0 + small_dram.t_rfc
    for bank in rank.banks:
        outcome = bank.access(row=0, now_ns=1000.0)
        assert outcome.start_ns >= end


def test_channel_bus_serializes_transfers(small_dram):
    channel = Channel(small_dram)
    first = channel.reserve_bus(0.0, 2.5)
    second = channel.reserve_bus(0.0, 2.5)
    assert first == 0.0
    assert second == 2.5


def test_block_channel_stalls_banks_and_bus(small_dram):
    channel = Channel(small_dram)
    end = channel.block_channel(0.0, 1460.0)
    assert end == 1460.0
    assert channel.reserve_bus(0.0, 1.0) >= 1460.0
    for bank in channel.iter_banks():
        assert bank.access(row=0, now_ns=0.0).start_ns >= 1460.0


def test_fault_wiring_optional(small_dram):
    without = Channel(small_dram, with_faults=False)
    with_faults = Channel(small_dram, with_faults=True, t_rh=100.0)
    assert all(b.disturbance is None for b in without.iter_banks())
    assert all(b.disturbance is not None for b in with_faults.iter_banks())


def test_rank_flip_count_aggregates(small_dram):
    channel = Channel(small_dram, with_faults=True, t_rh=10.0)
    bank = channel.bank(0, 0)
    for _ in range(10):
        bank.activate(100)
    assert channel.ranks[0].flip_count == 2


def test_end_window_cascades(small_dram):
    channel = Channel(small_dram)
    bank = channel.bank(0, 1)
    bank.activate(5)
    channel.end_window()
    assert bank.windows_elapsed == 1
