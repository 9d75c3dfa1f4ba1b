"""Report rendering and the perf harness."""

import pytest

from repro.analysis.perf import records_for_windows, run_pair, run_workload
from repro.analysis.report import render_table
from repro.core.config import RRSConfig
from repro.core.rrs import RandomizedRowSwap
from repro.dram.config import DRAMConfig
from repro.workloads.suites import get_workload


class TestRenderTable:
    def test_alignment_and_rows(self):
        text = render_table(
            ["name", "value"], [["a", 1], ["long-name", 22]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a"], [["x", "y"]])


class TestPerfHarness:
    def test_records_for_windows_scales_with_mpki(self):
        low = records_for_windows(get_workload("gromacs"))
        high = records_for_windows(get_workload("mcf"))
        assert high >= low

    def test_run_workload_smoke(self):
        metrics = run_workload(
            get_workload("gromacs"), scale=64, records_per_core=1500
        )
        assert metrics.accesses == 8 * 1500
        assert metrics.ipc > 0

    def test_run_pair_normalization(self):
        scale = 64
        dram = DRAMConfig().scaled(scale)

        def factory():
            return RandomizedRowSwap(
                RRSConfig.for_threshold(4800, DRAMConfig()).scaled(scale), dram
            )

        result = run_pair(
            get_workload("gromacs"), factory, scale=scale, records_per_core=1500
        )
        assert 0.8 <= result.normalized_performance <= 1.05
        assert result.slowdown_percent == pytest.approx(
            (1 - result.normalized_performance) * 100
        )

    def test_mix_uses_component_traces(self):
        metrics = run_workload(
            get_workload("mix1"), scale=64, records_per_core=800
        )
        assert metrics.accesses == 8 * 800
