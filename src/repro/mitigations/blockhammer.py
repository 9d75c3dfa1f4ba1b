"""BlockHammer (Yaglikci et al., HPCA 2021): throttling-based defense.

The only other aggressor-focused mitigation (paper Section 8.1).
Per-bank dual counting Bloom filters track activation counts over
overlapping half-window lifetimes; rows whose estimate crosses the
*blacklisting threshold* have their subsequent activations delayed so
they cannot reach T_RH activations within a refresh window.

Two properties the paper's Figure 11 exposes are modelled faithfully:

* the delay per blacklisted activation is ~(window - time to blacklist)
  / (T_RH - blacklist threshold) — about 13-20 us at T_RH = 4.8K, a
  severe stall;
* Bloom collisions blacklist innocent rows that merely share counters
  with a hot row, so benign workloads suffer collateral throttling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.mitigations.base import (
    BankKey,
    Mitigation,
    MitigationOutcome,
    NOOP_OUTCOME,
)
from repro.track.bloom import CountingBloomFilter


@dataclass(frozen=True)
class BlockHammerConfig:
    """BlockHammer parameters (defaults follow the paper's comparison)."""

    t_rh: int = 4800
    blacklist_threshold: int = 512  # N_BL: 512 or 1K in the paper
    window_ns: int = 64_000_000
    counters: int = 1024
    hashes: int = 4
    seed: int = 0

    @property
    def delay_ns(self) -> float:
        """Minimum spacing enforced between a blacklisted row's ACTs.

        After blacklisting, the row may perform at most
        ``t_rh - blacklist_threshold`` more ACTs in the remaining
        window; pacing them evenly over a full window bounds the count.
        """
        budget = max(1, self.t_rh - self.blacklist_threshold)
        return self.window_ns / budget


class BlockHammer(Mitigation):
    """Counting-Bloom blacklisting + activation throttling.

    Every activation goes to ``on_activation`` under either loop: the
    Bloom filters are not a Misra-Gries tracker the compiled loop could
    run itself (``hot_row_tracker``).
    """

    name = "BlockHammer"

    def __init__(self, config: BlockHammerConfig = BlockHammerConfig()) -> None:
        self.config = config
        self.blacklisted_delays = 0
        # Dual filters with staggered lifetimes (the paper's "unified
        # Bloom filter" scheme): the active filter counts, the shadow
        # filter holds the previous half-window so history straddles
        # window boundaries.
        self._filters: Dict[BankKey, Tuple[CountingBloomFilter, CountingBloomFilter]] = {}
        self._last_act_ns: Dict[Tuple[BankKey, int], float] = {}

    # ------------------------------------------------------------------
    # Mitigation interface
    # ------------------------------------------------------------------
    def pre_activate_delay_ns(
        self, bank_key: BankKey, row: int, now_ns: float
    ) -> float:
        """Delay the ACT if the row is blacklisted and paced too fast."""
        if self._estimate(bank_key, row) < self.config.blacklist_threshold:
            return 0.0
        last = self._last_act_ns.get((bank_key, row))
        if last is None:
            return 0.0
        earliest = last + self.config.delay_ns
        if earliest <= now_ns:
            return 0.0
        self.blacklisted_delays += 1
        return earliest - now_ns

    def on_activation(
        self, bank_key: BankKey, row: int, physical_row: int, now_ns: float
    ) -> MitigationOutcome:
        """Count the ACT in the active Bloom filter."""
        active, _ = self._bank_filters(bank_key)
        active.observe(physical_row)
        self._last_act_ns[(bank_key, physical_row)] = now_ns
        return NOOP_OUTCOME

    def on_window_end(self, window_index: int) -> None:
        """Rotate filter lifetimes: shadow <- active, active resets."""
        for bank_key, (active, shadow) in list(self._filters.items()):
            shadow.reset()
            self._filters[bank_key] = (shadow, active)
        self._last_act_ns.clear()

    def storage_bits_per_bank(self, rows_per_bank: int) -> int:
        """Two counting Bloom filters of t_rh-wide counters."""
        counter_bits = max(1, self.config.t_rh).bit_length()
        return 2 * self.config.counters * counter_bits

    # ------------------------------------------------------------------
    # Snapshotable (repro.state): both filters per bank (each snapshot
    # carries its own hash keys, so active/shadow role rotation across
    # window ends survives the round trip) plus the pacing timestamps.
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple:
        return (
            self.blacklisted_delays,
            {
                key: (active.snapshot_state(), shadow.snapshot_state())
                for key, (active, shadow) in self._filters.items()
            },
            dict(self._last_act_ns),
        )

    def restore_state(self, state: tuple) -> None:
        blacklisted_delays, filters, last_act = state
        self.blacklisted_delays = blacklisted_delays
        self._filters = {}
        for key, (active_state, shadow_state) in filters.items():
            active, shadow = (
                CountingBloomFilter(
                    self.config.counters, self.config.hashes, seed=self.config.seed
                ),
                CountingBloomFilter(
                    self.config.counters,
                    self.config.hashes,
                    seed=self.config.seed + 1,
                ),
            )
            active.restore_state(active_state)
            shadow.restore_state(shadow_state)
            self._filters[key] = (active, shadow)
        self._last_act_ns = dict(last_act)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _bank_filters(
        self, bank_key: BankKey
    ) -> Tuple[CountingBloomFilter, CountingBloomFilter]:
        filters = self._filters.get(bank_key)
        if filters is None:
            filters = (
                CountingBloomFilter(
                    self.config.counters, self.config.hashes, seed=self.config.seed
                ),
                CountingBloomFilter(
                    self.config.counters,
                    self.config.hashes,
                    seed=self.config.seed + 1,
                ),
            )
            self._filters[bank_key] = filters
        return filters

    def _estimate(self, bank_key: BankKey, row: int) -> int:
        active, shadow = self._bank_filters(bank_key)
        return active.estimate(row) + shadow.estimate(row)
