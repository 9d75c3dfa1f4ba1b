"""Footnote-2 integration: swap-rate detection + preemptive refresh."""

from repro.attacks.base import AttackHarness
from repro.attacks.rrs_adaptive import RRSAdaptiveAttack
from repro.core.config import RRSConfig
from repro.core.rrs import RandomizedRowSwap, SwapRateDetector
from repro.dram.config import DRAMConfig

ROWS = 4096  # deliberately small so the adaptive attack bites fast
T_RH = 240


def _dram():
    return DRAMConfig(
        channels=1, banks_per_rank=1, rows_per_bank=ROWS, row_size_bytes=1024
    )


def _rrs(detector=None):
    t_rrs = T_RH // 3  # weakened k so success is observable
    return RandomizedRowSwap(
        RRSConfig(
            t_rh=T_RH,
            t_rrs=t_rrs,
            window_activations=1_300_000,
            rows_per_bank=ROWS,
            tracker_entries=256,
            rit_capacity_tuples=512,
            exclude_tracked_destinations=False,
        ),
        _dram(),
        detector=detector,
    )


def test_weakened_rrs_falls_to_adaptive_attack():
    """Baseline for the detector test: without footnote-2 detection a
    deliberately weakened RRS (tiny bank, k=3) is breakable."""
    harness = AttackHarness(_rrs(), _dram(), t_rh=T_RH, distance2_coupling=0.0)
    attack = RRSAdaptiveAttack(t_rrs=T_RH // 3, rows_per_bank=ROWS, seed=3)
    result = harness.run(attack.rows(), max_windows=50)
    assert result.succeeded


def test_detector_preemptive_refresh_saves_weakened_rrs():
    """With the detector, repeated swaps on one physical row trigger a
    whole-bank refresh that resets the accumulated disturbance."""
    detector = SwapRateDetector(flag_threshold=2)
    rrs = _rrs(detector=detector)
    harness = AttackHarness(rrs, _dram(), t_rh=T_RH, distance2_coupling=0.0)
    attack = RRSAdaptiveAttack(t_rrs=T_RH // 3, rows_per_bank=ROWS, seed=3)
    result = harness.run(attack.rows(), max_windows=50)
    assert not result.succeeded
    assert rrs.preemptive_refreshes > 0


def test_preemptive_refresh_costs_channel_time():
    detector = SwapRateDetector(flag_threshold=2)
    rrs = _rrs(detector=detector)
    harness = AttackHarness(rrs, _dram(), t_rh=T_RH, distance2_coupling=0.0)
    attack = RRSAdaptiveAttack(t_rrs=T_RH // 3, rows_per_bank=ROWS, seed=3)
    result = harness.run(
        attack.rows(), max_activations=200_000, stop_on_flip=False
    )
    # Each preemptive refresh charges the paper's ~2.8ms full-refresh
    # burst, visible as lost duty cycle.
    if rrs.preemptive_refreshes:
        assert result.elapsed_ns > result.activations * 45.0


def test_benign_traffic_never_flags():
    detector = SwapRateDetector(flag_threshold=2)
    rrs = _rrs(detector=detector)
    # Distinct rows swapping once each: no physical row repeats.
    bank = (0, 0, 0)
    for row in range(0, 100, 2):
        for _ in range(T_RH // 3):
            rrs.on_activation(bank, row, rrs.route(bank, row), 0.0)
    assert detector.flagged == 0 or rrs.preemptive_refreshes <= detector.flagged
