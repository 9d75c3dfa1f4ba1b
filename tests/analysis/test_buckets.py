"""Buckets-and-balls Monte Carlo models."""

import pytest

from repro.analysis.buckets import (
    BucketsAndBalls,
    cat_installs_until_conflict,
    mirage_installs_until_conflict,
)
from repro.analysis.security import validate_window_model


def test_windows_until_success_small():
    experiment = BucketsAndBalls(
        buckets=64, balls_per_window=64, target_balls=4, seed=1
    )
    windows = experiment.windows_until_success(max_windows=10_000)
    assert windows is not None
    assert windows >= 1


def test_impossible_target_returns_none():
    experiment = BucketsAndBalls(
        buckets=1000, balls_per_window=2, target_balls=3, seed=1
    )
    assert experiment.windows_until_success(max_windows=50) is None


def test_analytic_probability_bounds():
    experiment = BucketsAndBalls(
        buckets=128 * 1024, balls_per_window=1572, target_balls=6
    )
    p = experiment.analytic_window_probability()
    # Table 4's headline: ~5e-10 per window for T=800.
    assert 1e-10 < p < 1e-8


@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize(
    "trials, chunk_draws",
    [
        (200, 4_000_000),  # one chunk
        (97, 130),  # 2 windows a chunk; 97 is odd, so the last chunk is short
        (40, 7),  # fewer draws than a window holds: one window a chunk
    ],
)
def test_success_probability_matches_reference(seed, trials, chunk_draws):
    """The chunked, sorted count sees the reference's throws: with int32
    draws it takes the same ``next_uint32`` stream as the int64 draws of
    the reference, on whatever numpy runs this test."""
    for target in (3, 4, 5):
        experiment = BucketsAndBalls(
            buckets=64, balls_per_window=64, target_balls=target, seed=seed
        )
        assert experiment.success_probability(
            trials, chunk_draws=chunk_draws
        ) == experiment.success_probability_reference(trials)


@pytest.mark.parametrize("target", [0, 1, 2, 40, 41])
def test_success_probability_edge_targets(target):
    # 40 balls: a target of all of them never hits in 64 buckets; 41
    # cannot hit; 0 and 1 always do.
    experiment = BucketsAndBalls(
        buckets=64, balls_per_window=40, target_balls=target, seed=2
    )
    want = experiment.success_probability_reference(150)
    assert experiment.success_probability(150, chunk_draws=100) == want
    if target in (0, 1):
        assert want == 1.0
    if target > 40:
        assert want == 0.0


@pytest.mark.parametrize("buckets", [40_000, 1 << 20])
def test_success_probability_wide_rows(buckets):
    """Wide rows: throws beyond int16, sparse hits."""
    experiment = BucketsAndBalls(
        buckets=buckets, balls_per_window=200, target_balls=2, seed=4
    )
    measured = experiment.success_probability(400, chunk_draws=5_000)
    assert measured == experiment.success_probability_reference(400)
    assert 0.0 < measured < 1.0


def test_zero_trials_are_rejected():
    experiment = BucketsAndBalls(buckets=64, balls_per_window=64, target_balls=4)
    with pytest.raises(ValueError):
        experiment.success_probability(trials=0)
    with pytest.raises(ValueError):
        experiment.success_probability_reference(trials=0)
    with pytest.raises(ValueError):
        validate_window_model(trials=0)


def test_analytic_probability_of_an_unreachable_target_is_zero():
    experiment = BucketsAndBalls(buckets=64, balls_per_window=5, target_balls=6)
    assert experiment.analytic_window_probability() == 0.0
    reachable = BucketsAndBalls(buckets=64, balls_per_window=6, target_balls=6)
    assert 0.0 < reachable.analytic_window_probability() < 1e-8


def test_cat_conflicts_rarer_with_more_extra_ways():
    few = cat_installs_until_conflict(
        sets=16, demand_ways=4, extra_ways=0, trials=10, max_installs=200_000, seed=1
    )
    more = cat_installs_until_conflict(
        sets=16, demand_ways=4, extra_ways=2, trials=10, max_installs=200_000, seed=1
    )
    assert more > few


def test_cat_conflict_monte_carlo_grows_fast():
    """Installs-to-conflict grows super-linearly in extra ways (the
    doubly-exponential tail the paper's Figure 9 shows)."""
    values = [
        cat_installs_until_conflict(
            sets=64,
            demand_ways=14,
            extra_ways=e,
            trials=5,
            max_installs=2_000_000,
            seed=2,
        )
        for e in (0, 1, 2)
    ]
    assert values[1] > values[0]
    assert values[2] > 20 * values[1]


def test_mirage_projection_squares_per_extra_way():
    base = mirage_installs_until_conflict(3, anchor_extra=3, anchor_installs=1e4)
    one_up = mirage_installs_until_conflict(4, anchor_extra=3, anchor_installs=1e4)
    two_up = mirage_installs_until_conflict(5, anchor_extra=3, anchor_installs=1e4)
    assert base == 1e4
    assert one_up == pytest.approx(1e8, rel=1e-6)
    assert two_up == pytest.approx(1e16, rel=1e-6)


def test_mirage_projection_reaches_paper_scale():
    # Paper: ~1e30 installs at 6 extra ways.
    installs = mirage_installs_until_conflict(6, anchor_extra=3, anchor_installs=2e3)
    assert installs > 1e24


def test_mirage_validation():
    with pytest.raises(ValueError):
        mirage_installs_until_conflict(2, anchor_extra=3)
    with pytest.raises(ValueError):
        mirage_installs_until_conflict(4, anchor_extra=3, anchor_installs=0.5)


def test_cat_geometry_validation():
    with pytest.raises(ValueError):
        cat_installs_until_conflict(sets=0)
