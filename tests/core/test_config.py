"""RRS configuration derivation (Sections 4.5, 5.3.2, 7.3)."""

import pytest

from repro.core.config import RRSConfig


def test_paper_defaults():
    config = RRSConfig()
    assert config.t_rh == 4800
    assert config.t_rrs == 800
    assert config.k == 6
    assert config.tracker_entries == 1700
    assert config.rit_capacity_tuples == 3400
    assert config.rit_capacity_entries == 6800
    # 4 CPU cycles at 3.2GHz = 1.25ns.
    assert config.rit_lookup_ns == pytest.approx(1.25)


def test_for_threshold_reproduces_section_4_5():
    config = RRSConfig.for_threshold(4800)
    assert config.t_rrs == 800
    # Invariant-1 sizing: ACT_max / T_RRS (~1700 with the exact
    # refresh-overhead accounting).
    assert 1650 <= config.tracker_entries <= 1750
    assert config.rit_capacity_tuples == 2 * config.tracker_entries


def test_for_threshold_scales_with_t_rh():
    """The Figure 10 adaptation rule: lower T_RH -> smaller T_RRS and
    proportionally bigger structures."""
    low = RRSConfig.for_threshold(1200)
    high = RRSConfig.for_threshold(19200)
    assert low.t_rrs == 200 and high.t_rrs == 3200
    assert low.tracker_entries > 4 * high.tracker_entries


def test_max_swaps_per_window():
    config = RRSConfig()
    assert config.max_swaps_per_window == 1700


def test_scaled_preserves_ratios():
    config = RRSConfig.for_threshold(4800).scaled(32)
    assert config.time_scale == 32
    assert config.t_rrs == 25
    assert config.t_rh // config.t_rrs == 6
    assert config.tracker_entries == pytest.approx(
        config.window_activations / config.t_rrs, abs=1
    )


def test_validation():
    with pytest.raises(ValueError):
        RRSConfig(t_rrs=0)
    with pytest.raises(ValueError):
        RRSConfig(t_rrs=5000, t_rh=4800)  # T_RRS must be below T_RH
    with pytest.raises(ValueError):
        RRSConfig.for_threshold(4800, k=1)
    with pytest.raises(ValueError):
        RRSConfig().scaled(0)
