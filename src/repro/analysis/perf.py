"""Performance-experiment harness.

Every IPC experiment in the paper is "run the baseline, run the
defense, divide" (Figures 6, 10, 11). This module packages that flow:
time-scaled epochs per DESIGN.md §5, run lengths sized to cover full
refresh windows, mixes mapped to per-core component traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.dram.config import DRAMConfig
from repro.mem.metrics import SimMetrics
from repro.mem.system import SystemConfig, SystemSimulator
from repro.mitigations.base import Mitigation
from repro.mitigations.none import NoMitigation
from repro.workloads.suites import WorkloadSpec
from repro.workloads.synthetic import (
    CYCLES_PER_WINDOW,
    SyntheticTraceGenerator,
    workload_ipc,
)

DEFAULT_SCALE = 32


def records_for_windows(
    spec: WorkloadSpec,
    scale: int = DEFAULT_SCALE,
    target_windows: float = 1.3,
    max_records: int = 120_000,
    min_records: int = 4_000,
) -> int:
    """Per-core record count covering ~``target_windows`` scaled epochs."""
    accesses_per_window = (
        CYCLES_PER_WINDOW / scale * workload_ipc(spec) * spec.mpki / 1000.0
    )
    wanted = int(accesses_per_window * target_windows) + 1000
    return max(min_records, min(max_records, wanted))


def _core_spec(spec: WorkloadSpec, core_id: int) -> WorkloadSpec:
    """The workload one core replays (mix components differ per core)."""
    return spec.component_for_core(core_id)


def run_workload(
    spec: WorkloadSpec,
    mitigation: Optional[Mitigation] = None,
    scale: int = DEFAULT_SCALE,
    records_per_core: Optional[int] = None,
    cores: int = 8,
    seed: int = 0,
    with_faults: bool = False,
    t_rh: float = 4800.0,
    obs=None,
    checkpoints=None,
) -> SimMetrics:
    """One full-system run of a workload under a mitigation.

    ``obs`` (a :class:`repro.obs.Observability`) installs read-only
    tracing/metrics probes; None defers to the ``REPRO_TRACE`` env.
    ``checkpoints`` (a :class:`~repro.state.checkpoint.CheckpointSession`)
    opts the run into deterministic cut/resume; results are
    bit-identical with or without it.
    """
    dram = DRAMConfig().scaled(scale)
    config = SystemConfig(dram=dram, cores=cores, with_faults=with_faults, t_rh=t_rh)
    sim = SystemSimulator(
        config,
        mitigation=mitigation if mitigation is not None else NoMitigation(),
        obs=obs,
    )
    if records_per_core is None:
        records_per_core = records_for_windows(spec, scale)
    traces = []
    for core_id in range(cores):
        core_spec = _core_spec(spec, core_id)
        generator = SyntheticTraceGenerator(
            core_spec, core_id=core_id, cores=cores, config=dram, seed=seed
        )
        # Columnar chunks: snapshotable, so checkpointed runs can cut
        # them. Bit-identical to .records().
        traces.append(generator.chunks(records_per_core))
    return sim.run(traces, workload=spec.name, checkpoints=checkpoints)


@dataclass
class WorkloadResult:
    """Baseline-vs-defense comparison for one workload."""

    spec: WorkloadSpec
    baseline: SimMetrics
    defended: SimMetrics
    scale: int

    @property
    def normalized_performance(self) -> float:
        """Defended IPC / baseline IPC (Figure 6's y-axis)."""
        return self.defended.normalized_to(self.baseline)

    @property
    def slowdown_percent(self) -> float:
        """(1 - normalized) * 100."""
        return (1.0 - self.normalized_performance) * 100.0

    @property
    def swaps_per_window(self) -> float:
        """Swaps per (scaled) refresh window, from elapsed sim time."""
        window_ns = DRAMConfig().scaled(self.scale).refresh_window_ns
        windows = max(self.defended.sim_time_ns / window_ns, 1e-9)
        return self.defended.swaps / windows


def run_pair(
    spec: WorkloadSpec,
    mitigation_factory: Callable[[], Mitigation],
    scale: int = DEFAULT_SCALE,
    records_per_core: Optional[int] = None,
    cores: int = 8,
    seed: int = 0,
) -> WorkloadResult:
    """Run baseline and defense on identical traces; compare IPC."""
    if records_per_core is None:
        records_per_core = records_for_windows(spec, scale)
    baseline = run_workload(
        spec, NoMitigation(), scale, records_per_core, cores, seed
    )
    defended = run_workload(
        spec, mitigation_factory(), scale, records_per_core, cores, seed
    )
    return WorkloadResult(
        spec=spec, baseline=baseline, defended=defended, scale=scale
    )
