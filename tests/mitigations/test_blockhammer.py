"""BlockHammer: blacklisting and activation throttling."""

import pytest

from repro.mitigations.blockhammer import BlockHammer, BlockHammerConfig

BANK = (0, 0, 0)


def _blockhammer(blacklist=16, t_rh=100, window_ns=1_000_000):
    return BlockHammer(
        BlockHammerConfig(
            t_rh=t_rh,
            blacklist_threshold=blacklist,
            window_ns=window_ns,
            counters=256,
            hashes=4,
        )
    )


def test_delay_formula_matches_paper_magnitude():
    # T_RH 4.8K, blacklist 512: pace the remaining 4288 ACTs over 64ms
    # -> ~15us per ACT, the paper's "approximately 20 microseconds".
    config = BlockHammerConfig()
    assert config.delay_ns == pytest.approx(64e6 / (4800 - 512))
    assert 10_000 <= config.delay_ns <= 25_000


def test_cold_rows_not_delayed():
    bh = _blockhammer()
    assert bh.pre_activate_delay_ns(BANK, 5, 0.0) == 0.0


def test_hot_row_gets_blacklisted_and_paced():
    bh = _blockhammer(blacklist=16)
    now = 0.0
    for _ in range(16):
        bh.on_activation(BANK, 5, 5, now)
        now += 45.0
    delay = bh.pre_activate_delay_ns(BANK, 5, now)
    assert delay > 0
    assert bh.blacklisted_delays == 1
    # The enforced spacing equals the pacing interval.
    assert delay == pytest.approx(bh.config.delay_ns - 45.0, rel=0.05)


def test_paced_row_not_delayed_when_naturally_slow():
    bh = _blockhammer(blacklist=16)
    now = 0.0
    for _ in range(16):
        bh.on_activation(BANK, 5, 5, now)
        now += 45.0
    # Wait out more than the pacing interval: no further delay.
    assert bh.pre_activate_delay_ns(BANK, 5, now + bh.config.delay_ns) == 0.0


def test_bloom_collateral_damage():
    """Rows colliding with a hot row in the Bloom filter get throttled
    too — the mechanism behind BlockHammer's benign-workload slowdowns
    (paper Figure 11)."""
    bh = BlockHammer(
        BlockHammerConfig(
            t_rh=100, blacklist_threshold=32, window_ns=1_000_000, counters=8, hashes=2
        )
    )
    now = 0.0
    for _ in range(64):
        bh.on_activation(BANK, 5, 5, now)
        now += 45.0
    innocent_blacklisted = [
        row
        for row in range(6, 200)
        if bh._estimate(BANK, row) >= bh.config.blacklist_threshold
    ]
    assert innocent_blacklisted


def test_window_rotation_preserves_history():
    bh = _blockhammer(blacklist=8)
    for i in range(8):
        bh.on_activation(BANK, 5, 5, i * 45.0)
    bh.on_window_end(0)
    # History lives in the shadow filter: still blacklisted.
    assert bh._estimate(BANK, 5) >= 8
    bh.on_window_end(1)
    # After two rotations the old counts are gone.
    assert bh._estimate(BANK, 5) == 0


def test_storage_bits():
    bh = _blockhammer()
    assert bh.storage_bits_per_bank(128 * 1024) == 2 * 256 * 7


def test_scalar_fallback_pins_batched_speedup():
    """Regression pin for the 0.95x batched slowdown: BlockHammer must
    opt out of the batched activation path entirely, so the "batched"
    bench configuration runs the identical scalar code and its speedup
    is 1.0 by construction."""
    from repro.dram.address import AddressMapper
    from repro.dram.config import DRAMConfig
    from repro.dram.device import Channel

    from repro.mem.controller import MemoryController

    assert BlockHammer.batch_scope is None

    dram = DRAMConfig().scaled(32)
    controller = MemoryController(
        dram, Channel(dram), _blockhammer(), AddressMapper(dram)
    )
    assert controller._batch is None
