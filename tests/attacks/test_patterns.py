"""Attack pattern generators."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.base import _END, _read_run
from repro.attacks.patterns import (
    DoubleSidedAttack,
    HalfDoubleAttack,
    ManySidedAttack,
    RowRuns,
    SingleSidedAttack,
)
from repro.attacks.rrs_adaptive import RRSAdaptiveAttack


def _take(iterator, n):
    return list(itertools.islice(iterator, n))


def test_single_sided_repeats_aggressor():
    attack = SingleSidedAttack(100)
    assert _take(attack.rows(), 5) == [100] * 5
    assert attack.victims == (99, 101)


def test_double_sided_alternates():
    attack = DoubleSidedAttack(100)
    assert _take(attack.rows(), 4) == [99, 101, 99, 101]
    assert attack.victims == (100,)


def test_many_sided_round_robin():
    attack = ManySidedAttack([10, 20, 30])
    assert _take(attack.rows(), 6) == [10, 20, 30, 10, 20, 30]
    assert set(attack.victims) == {9, 11, 19, 21, 29, 31}


def test_half_double_geometry():
    attack = HalfDoubleAttack(victim=100, dose_interval=4)
    assert attack.far == 101
    assert attack.near == 102
    rows = _take(attack.rows(), 12)
    assert rows.count(attack.far) == 3  # every 4th activation
    assert rows.count(attack.near) == 9


def test_half_double_dose_interval_controls_trickle():
    sparse = _take(HalfDoubleAttack(100, dose_interval=100).rows(), 1000)
    assert sparse.count(101) == 10


def test_adaptive_rounds_of_exactly_t():
    attack = RRSAdaptiveAttack(t_rrs=7, rows_per_bank=1024, seed=3)
    rows = _take(attack.rows(), 21)
    assert rows[0:7] == [rows[0]] * 7
    assert rows[7:14] == [rows[7]] * 7
    assert rows[14:21] == [rows[14]] * 7
    assert attack.rounds == 3


def test_adaptive_targets_are_random_and_in_range():
    attack = RRSAdaptiveAttack(t_rrs=2, rows_per_bank=64, seed=1)
    rows = _take(attack.rows(), 200)
    targets = set(rows)
    assert len(targets) > 10
    assert all(0 <= r < 64 for r in targets)


def test_validation():
    with pytest.raises(ValueError):
        SingleSidedAttack(-1)
    with pytest.raises(ValueError):
        DoubleSidedAttack(0)
    with pytest.raises(ValueError):
        ManySidedAttack([1])
    with pytest.raises(ValueError):
        HalfDoubleAttack(100, dose_interval=0)
    with pytest.raises(ValueError):
        RRSAdaptiveAttack(t_rrs=0)


# The generators each pattern's ``rows()`` was before patterns defined
# their streams as runs.
def _single_generator(attack):
    while True:
        yield attack.aggressor


def _double_generator(attack):
    low, high = attack.victim - 1, attack.victim + 1
    while True:
        yield low
        yield high


def _many_generator(attack):
    while True:
        yield from attack.aggressors


def _half_double_generator(attack):
    count = 0
    while True:
        count += 1
        if count % attack.dose_interval == 0:
            yield attack.far
        else:
            yield attack.near


@pytest.mark.parametrize(
    "attack, generator",
    [
        (SingleSidedAttack(100), _single_generator),
        (DoubleSidedAttack(100), _double_generator),
        (ManySidedAttack([10, 20, 30]), _many_generator),
        (ManySidedAttack([5, 5, 6]), _many_generator),
        (ManySidedAttack([5, 6, 5]), _many_generator),
        (ManySidedAttack([7, 7]), _many_generator),
        (HalfDoubleAttack(100, dose_interval=1), _half_double_generator),
        (HalfDoubleAttack(100, dose_interval=2), _half_double_generator),
        (HalfDoubleAttack(100, dose_interval=64), _half_double_generator),
        (HalfDoubleAttack(100, dose_interval=10**9), _half_double_generator),
    ],
)
def test_rows_pinned_to_the_generators(attack, generator):
    assert _take(attack.rows(), 5_000) == _take(generator(attack), 5_000)


@given(
    runs=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 6)), min_size=1, max_size=6
    ).filter(lambda runs: any(length for _, length in runs)),
    reads=st.lists(
        st.tuples(st.booleans(), st.integers(1, 30)), min_size=1, max_size=30
    ),
)
@settings(max_examples=300, deadline=None)
def test_read_run_matches_one_row_at_a_time(runs, reads):
    """``RowRuns.read_run`` returns what the one-row-at-a-time read
    returns and leaves the stream where that read leaves it."""
    stream = RowRuns(runs)
    plain = iter(RowRuns(runs))
    plain = (row for row in plain)  # a foreign iterable: the loop reads it
    for use_run, limit in reads:
        row = next(stream)
        assert next(plain) == row
        if use_run:
            got = stream.read_run(row, limit)
            want = _read_run(plain, row, limit)
            assert want[1] is not _END  # the stream is infinite
            assert got == want
    assert _take(stream, 40) == _take(plain, 40)


def test_row_runs_validation():
    with pytest.raises(ValueError):
        RowRuns([])
    with pytest.raises(ValueError):
        RowRuns([(1, 0)])
    with pytest.raises(ValueError):
        RowRuns([(1, -1), (2, 1)])
