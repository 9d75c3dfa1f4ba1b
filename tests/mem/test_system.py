"""Full-system simulator: end-to-end runs and metric collection."""

import pytest

from repro.dram.config import DRAMConfig
from repro.mem.system import SystemConfig, SystemSimulator
from repro.workloads.trace import TraceRecord


def _trace(n, stride=64, gap=50, core=0):
    for i in range(n):
        yield TraceRecord(
            instruction_gap=gap, address=(core * 1_000_000 + i) * stride, is_write=False
        )


def _system(cores=2, scale=64):
    dram = DRAMConfig().scaled(scale)
    return SystemSimulator(SystemConfig(dram=dram, cores=cores))


def test_run_collects_metrics():
    sim = _system()
    metrics = sim.run([_trace(500, core=0), _trace(500, core=1)], workload="unit")
    assert metrics.workload == "unit"
    assert metrics.mitigation == "Baseline"
    assert metrics.accesses == 1000
    assert metrics.instructions > 0
    assert len(metrics.core_ipcs) == 2
    assert 0 < metrics.ipc <= 4.0


def test_trace_count_must_match_cores():
    sim = _system(cores=2)
    with pytest.raises(ValueError):
        sim.run([_trace(10)])


def test_ipc_decreases_with_memory_intensity():
    light = _system().run(
        [_trace(300, gap=400, core=c) for c in range(2)], "light"
    )
    heavy = _system().run(
        [_trace(300, gap=5, core=c) for c in range(2)], "heavy"
    )
    assert heavy.ipc < light.ipc


def test_refresh_windows_advance():
    # Long-running trace at a tiny scaled window (1ms) crosses windows.
    sim = _system(cores=1, scale=640)
    metrics = sim.run([_trace(8000, gap=200)], "windows")
    assert metrics.windows >= 1


def test_deterministic_rerun():
    a = _system().run([_trace(400, core=c) for c in range(2)], "det")
    b = _system().run([_trace(400, core=c) for c in range(2)], "det")
    assert a.ipc == b.ipc
    assert a.sim_time_ns == b.sim_time_ns


def test_flip_count_zero_without_faults():
    sim = _system()
    sim.run([_trace(100, core=c) for c in range(2)], "nf")
    assert sim.flip_count == 0
