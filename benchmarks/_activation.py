"""Shared activation-level measurement helpers for the workload benches.

Table 3 and Figure 5 are per-64ms-window statistics at full scale;
timing is irrelevant, so these helpers run full-scale row-activation
streams for one representative bank and scale counts by the bank count
(hot rows are spread uniformly across banks by construction).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.config import RRSConfig
from repro.core.rrs import RandomizedRowSwap
from repro.dram.config import DRAMConfig
from repro.utils.rng import DeterministicRng
from repro.workloads.suites import WorkloadSpec
from repro.workloads.synthetic import ActivationProfile

BANK = (0, 0, 0)


def bank_stream(
    spec: WorkloadSpec,
    config: DRAMConfig = DRAMConfig(),
    seed: int = 0,
) -> np.ndarray:
    """One bank's full-scale activation stream for one 64ms window."""
    profile = ActivationProfile.from_spec(spec, config)
    rng = DeterministicRng(seed, "activation", spec.name)
    return profile.bank_stream(rng, rows_per_bank=config.rows_per_bank)


def count_act800_rows(
    spec: WorkloadSpec,
    config: DRAMConfig = DRAMConfig(),
    threshold: int = 800,
    seed: int = 0,
) -> int:
    """System-wide rows with >= threshold ACTs in one window."""
    stream = bank_stream(spec, config, seed)
    if stream.size == 0:
        return 0
    counts = np.bincount(stream, minlength=config.rows_per_bank)
    return int((counts >= threshold).sum()) * config.banks_total


def swaps_per_window(
    spec: WorkloadSpec,
    config: DRAMConfig = DRAMConfig(),
    rrs_config: RRSConfig = None,
    seed: int = 0,
) -> Tuple[int, int]:
    """(system-wide swaps per window, stream length) with full-scale RRS.

    Runs one bank's activation stream through the real RRS mitigation
    (tracker + RIT + destination exclusion) and scales by bank count.
    The tracker runs in C and Python only at swaps
    (``block_kernel.replay_hot_rows``), falling back to one
    ``on_activation`` per activation without a compiler.
    """
    from repro.mem.block_kernel import replay_hot_rows

    if rrs_config is None:
        rrs_config = RRSConfig.for_threshold(4800, config)
    stream = bank_stream(spec, config, seed)
    rrs = RandomizedRowSwap(rrs_config, config)
    replay_hot_rows(rrs, BANK, stream)
    return rrs.total_swaps * config.banks_total, int(stream.size)
