"""Bank model: activation accounting and fault-model wiring."""

import pytest

from repro.dram.bank import Bank
from repro.dram.faults import DisturbanceModel


@pytest.fixture
def bank(small_dram):
    disturbance = DisturbanceModel(rows=small_dram.rows_per_bank, t_rh=100.0)
    return Bank(small_dram, disturbance=disturbance)


def test_access_counts_activation_on_miss(bank):
    bank.access(row=5, now_ns=0.0)
    assert bank.total_activations == 1


def test_row_buffer_hit_does_not_count_activation(bank):
    first = bank.access(row=5, now_ns=0.0)
    bank.access(row=5, now_ns=first.data_ns)
    assert bank.total_activations == 1


def test_explicit_activate_counts(bank):
    for _ in range(7):
        bank.activate(3)
    assert bank.total_activations == 7


def test_activations_feed_disturbance(bank):
    for _ in range(50):
        bank.activate(10)
    assert bank.disturbance.disturbance_of(9) >= 50


def test_refresh_row_resets_disturbance(bank):
    for _ in range(50):
        bank.activate(10)
    bank.refresh_row(9)
    assert bank.disturbance.disturbance_of(9) <= 2.0  # only refresh side effects


def test_end_window_clears_counts(bank):
    bank.activate(1)
    assert bank.disturbance.disturbance_of(0) > 0.0
    bank.end_window()
    assert bank.disturbance.disturbance_of(0) == 0.0
    assert bank.windows_elapsed == 1
    assert bank.total_activations == 1  # lifetime counter survives


def test_out_of_range_row_rejected(bank, small_dram):
    with pytest.raises(ValueError):
        bank.activate(small_dram.rows_per_bank)


def test_bank_key(small_dram):
    bank = Bank(small_dram, channel=1, rank=0, index=7)
    assert bank.key == (1, 0, 7)
