"""RRS configuration and parameter derivation.

The paper fixes the design around a Row Hammer threshold of 4.8K:
security analysis (Section 5) picks the swap threshold T_RRS = T_RH/6 =
800; Invariant 1 sizes the tracker at ACT_max/T_RRS = 1700 entries; and
re-swaps consuming two tuples size the RIT at 2x1700 = 3400 tuples
(Section 4.5). ``RRSConfig.for_threshold`` reproduces that derivation
for any T_RH, which is how the Figure 10 sensitivity sweep adapts the
design per threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.config import DRAMConfig

# Security analysis outcome (paper Table 4): k = T_RH / T_RRS = 6 gives
# an expected 3.8 years of continuous attack per success.
DEFAULT_K = 6

# RIT lookup adds 4 CPU cycles to every memory access (Section 4.7).
RIT_LOOKUP_CPU_CYCLES = 4
CPU_CLOCK_GHZ = 3.2


@dataclass(frozen=True)
class RRSConfig:
    """All RRS design parameters for one deployment."""

    t_rh: int = 4800
    t_rrs: int = 800
    window_activations: int = 1_360_000  # ACT_max per bank per window
    rows_per_bank: int = 128 * 1024
    tracker_entries: int = 1700
    rit_capacity_tuples: int = 3400
    rit_lookup_ns: float = RIT_LOOKUP_CPU_CYCLES / CPU_CLOCK_GHZ
    exclude_tracked_destinations: bool = True
    seed: int = 0
    # >1 when running a 1/time_scale-length epoch: the swap engine's
    # channel-block latency is divided by this so the *fraction* of
    # time spent swapping matches the full-scale system (DESIGN.md §5).
    time_scale: int = 1

    def __post_init__(self) -> None:
        if self.t_rrs <= 0 or self.t_rh <= 0:
            raise ValueError("thresholds must be positive")
        if self.t_rrs >= self.t_rh:
            raise ValueError("T_RRS must be below T_RH for any security")

    @property
    def k(self) -> int:
        """Swaps needed on one physical row to reach T_RH (T_RH/T_RRS)."""
        return self.t_rh // self.t_rrs

    @property
    def max_swaps_per_window(self) -> int:
        """Upper bound on swap triggers per bank per window (1700)."""
        return self.window_activations // self.t_rrs

    @property
    def rit_capacity_entries(self) -> int:
        """Directional RIT entries (2 per tuple)."""
        return 2 * self.rit_capacity_tuples

    @classmethod
    def for_threshold(
        cls,
        t_rh: int,
        dram: DRAMConfig = DRAMConfig(),
        k: int = DEFAULT_K,
        **overrides,
    ) -> "RRSConfig":
        """Derive a secure configuration for a given Row Hammer threshold.

        T_RRS = T_RH/k, tracker sized by Invariant 1, RIT sized for the
        re-swap worst case — the adaptation rule behind Figure 10.
        """
        if k < 2:
            raise ValueError("k must be at least 2")
        t_rrs = max(1, t_rh // k)
        window_acts = dram.acts_per_refresh_window
        tracker_entries = max(1, window_acts // t_rrs)
        return cls(
            t_rh=t_rh,
            t_rrs=t_rrs,
            window_activations=window_acts,
            rows_per_bank=dram.rows_per_bank,
            tracker_entries=tracker_entries,
            rit_capacity_tuples=2 * tracker_entries,
            **overrides,
        )

    def scaled(self, factor: int) -> "RRSConfig":
        """Scale thresholds/sizes down for a 1/factor-length epoch.

        Keeps T_RH/T_RRS and tracker/RIT proportionality so swap rates
        per unit time are preserved (DESIGN.md §5).
        """
        if factor < 1:
            raise ValueError("scale factor must be >= 1")
        t_rrs = max(2, self.t_rrs // factor)
        window = max(t_rrs, self.window_activations // factor)
        tracker = max(1, window // t_rrs)
        return RRSConfig(
            t_rh=max(t_rrs + 1, self.t_rh // factor),
            t_rrs=t_rrs,
            window_activations=window,
            rows_per_bank=self.rows_per_bank,
            tracker_entries=tracker,
            rit_capacity_tuples=2 * tracker,
            rit_lookup_ns=self.rit_lookup_ns,
            exclude_tracked_destinations=self.exclude_tracked_destinations,
            seed=self.seed,
            time_scale=self.time_scale * factor,
        )
