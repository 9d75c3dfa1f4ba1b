"""RandomizedRowSwap mitigation controller."""

import pytest

from repro.core.config import RRSConfig
from repro.core.rrs import RandomizedRowSwap, SwapRateDetector
from repro.dram.config import DRAMConfig

BANK = (0, 0, 0)


def _rrs(t_rrs=10, rows=1024, detector=None, **kwargs):
    config = RRSConfig(
        t_rh=t_rrs * 6,
        t_rrs=t_rrs,
        window_activations=t_rrs * 64,
        rows_per_bank=rows,
        tracker_entries=64,
        rit_capacity_tuples=128,
        **kwargs,
    )
    dram = DRAMConfig(
        channels=1, banks_per_rank=1, rows_per_bank=rows, row_size_bytes=1024
    )
    return RandomizedRowSwap(config, dram, detector=detector)


def test_no_swap_below_threshold():
    rrs = _rrs(t_rrs=10)
    for _ in range(9):
        outcome = rrs.on_activation(BANK, 5, 5, 0.0)
        assert outcome.is_noop
    assert rrs.total_swaps == 0


def test_swap_at_threshold_and_multiples():
    rrs = _rrs(t_rrs=10)
    outcomes = [rrs.on_activation(BANK, 5, rrs.route(BANK, 5), 0.0) for _ in range(30)]
    swaps = [o for o in outcomes if o.swaps]
    assert len(swaps) == 3  # at estimates 10, 20, 30
    assert rrs.total_swaps == 3


def test_swap_changes_routing():
    rrs = _rrs(t_rrs=10)
    assert rrs.route(BANK, 5) == 5
    for _ in range(10):
        rrs.on_activation(BANK, 5, rrs.route(BANK, 5), 0.0)
    routed = rrs.route(BANK, 5)
    assert routed != 5
    state = rrs.bank_state(BANK)
    assert state.rit.is_swapped(5)


def test_swap_blocks_channel_for_streaming_time():
    rrs = _rrs(t_rrs=10)
    blocked = 0.0
    for _ in range(10):
        outcome = rrs.on_activation(BANK, 5, rrs.route(BANK, 5), 0.0)
        blocked += outcome.channel_block_ns
    # One swap op at unscaled latency: 4 transfers of a 1KB row.
    engine = rrs.swap_engine(0)
    assert blocked == pytest.approx(engine.op_latency_ns)


def test_destination_excludes_tracker_and_rit():
    rrs = _rrs(t_rrs=5, rows=64)
    # Track rows 0..9, swap row 0 five times: destinations must avoid
    # tracked rows and already-swapped rows.
    for row in range(10):
        rrs.on_activation(BANK, row, row, 0.0)
    state = rrs.bank_state(BANK)
    for _ in range(200):
        destination = rrs._pick_destination(state, 0, state.tracker.__contains__)
        assert destination != 0
        assert destination not in state.tracker
        assert not state.rit.is_swapped(destination)


def test_window_end_resets_tracker_and_unlocks_rit():
    rrs = _rrs(t_rrs=10)
    for _ in range(10):
        rrs.on_activation(BANK, 5, rrs.route(BANK, 5), 0.0)
    state = rrs.bank_state(BANK)
    assert state.rit.locked_entries() == 2
    rrs.on_window_end(0)
    assert len(state.tracker) == 0
    assert state.rit.locked_entries() == 0
    assert rrs.swap_history == [1]


def test_routing_isolated_per_bank():
    rrs = _rrs(t_rrs=10)
    other_bank = (0, 0, 1)
    for _ in range(10):
        rrs.on_activation(BANK, 5, rrs.route(BANK, 5), 0.0)
    assert rrs.route(BANK, 5) != 5
    assert rrs.route(other_bank, 5) == 5


def test_lookup_latency_is_4_cycles():
    assert RandomizedRowSwap(RRSConfig(), DRAMConfig()).lookup_latency_ns() == (
        pytest.approx(1.25)
    )


def test_spilled_rows_never_trigger():
    rrs = _rrs(t_rrs=10)
    # A cold row whose observe() lands in the spill counter returns 0.
    outcome = rrs.on_activation(BANK, 1, 1, 0.0)
    assert outcome.is_noop


def test_detector_flags_repeated_swaps_of_same_physical_row():
    detector = SwapRateDetector(flag_threshold=2)
    rrs = _rrs(t_rrs=10, detector=detector)
    # Hammer the same logical row across multiples: its physical
    # location changes each swap, but the *logical* row appears in
    # every swap pair, so the detector sees repeats.
    for _ in range(30):
        rrs.on_activation(BANK, 5, rrs.route(BANK, 5), 0.0)
    assert detector.flagged >= 1


def test_detector_window_reset():
    detector = SwapRateDetector(flag_threshold=2)
    detector.note_swap([7, 8])
    detector.end_window()
    assert not detector.note_swap([7, 9])


def test_detector_validation():
    with pytest.raises(ValueError):
        SwapRateDetector(flag_threshold=1)


def test_storage_bits_positive():
    rrs = RandomizedRowSwap(RRSConfig(), DRAMConfig())
    bits = rrs.storage_bits_per_bank(128 * 1024)
    # Table 5: 42.9KB per bank.
    assert bits == pytest.approx(42.9 * 1024 * 8, rel=0.02)
