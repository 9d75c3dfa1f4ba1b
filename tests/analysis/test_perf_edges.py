"""Perf-harness edge cases."""

from repro.analysis.perf import records_for_windows
from repro.workloads.suites import get_workload


def test_records_clamped_to_minimum():
    spec = get_workload("exchange2_17")  # MPKI 0.05: tiny access rate
    assert records_for_windows(spec, scale=32, min_records=4000) >= 4000


def test_records_clamped_to_maximum():
    spec = get_workload("mcf")  # MPKI 107.81: enormous access rate
    assert records_for_windows(spec, scale=32, max_records=50_000) == 50_000


def test_records_scale_inverse_with_epoch_scale():
    spec = get_workload("bzip2")
    longer_epoch = records_for_windows(spec, scale=16, max_records=10**9)
    shorter_epoch = records_for_windows(spec, scale=64, max_records=10**9)
    assert longer_epoch > shorter_epoch


def test_more_windows_need_more_records():
    spec = get_workload("gcc")
    one = records_for_windows(spec, target_windows=1.0, max_records=10**9)
    two = records_for_windows(spec, target_windows=2.0, max_records=10**9)
    assert two > one
