"""Multi-bank attack harness (the paper's §5.3.2 all-bank attack).

The adaptive attacker can hammer all 16 banks of a channel at once:
16x the targets, but every bank's swaps block the *shared channel*, so
each bank's activation budget shrinks. The paper computes the resulting
duty cycle analytically (D drops from ~0.925 to ~0.55); this harness
measures it by simulation — per-bank tRC pacing, channel-wide blocking
for each swap, round-robin attacker scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.dram.config import DRAMConfig
from repro.mitigations.base import Mitigation
from repro.utils.rng import DeterministicRng


@dataclass
class MultiBankResult:
    """Outcome of an all-bank attack run."""

    activations: int = 0
    swaps: int = 0
    elapsed_ns: float = 0.0
    per_bank_activations: Dict[int, int] = field(default_factory=dict)
    t_rc_ns: float = DRAMConfig.t_rc

    @property
    def duty_cycle(self) -> float:
        """Mean fraction of wall time each bank spends activating.

        Each bank's own activations occupy ``acts * tRC`` of its time;
        the remainder is lost to channel blocking by every bank's swaps.
        """
        if self.elapsed_ns <= 0 or not self.per_bank_activations:
            return 1.0
        # repro-check: RRS005 -- integer counts: sum is order-independent
        per_bank = sum(self.per_bank_activations.values()) / len(
            self.per_bank_activations
        )
        return min(1.0, per_bank * self.t_rc_ns / self.elapsed_ns)


class MultiBankAttackHarness:
    """Round-robin adaptive hammering across every bank of a channel."""

    def __init__(
        self,
        mitigation_factory,
        dram: DRAMConfig = DRAMConfig(),
        banks: int = 16,
    ) -> None:
        if banks <= 0:
            raise ValueError("need at least one bank")
        self.dram = dram
        self.banks = banks
        # One shared mitigation object (per-bank state keyed internally),
        # mirroring how the controller drives it.
        self.mitigation: Mitigation = mitigation_factory()

    def run_adaptive(
        self,
        t_rrs: int,
        max_activations: int,
        seed: int = 0,
    ) -> MultiBankResult:
        """The Section 5.3 strategy on every bank simultaneously.

        Per bank: pick a random row, activate it T_RRS times (a few
        activations at a time, interleaved round-robin across banks the
        way a real attacker's access loop would), repeat. Channel
        blocking from any bank's swap stalls every bank.
        """
        rng = DeterministicRng(seed, "multibank")
        result = MultiBankResult(t_rc_ns=self.dram.t_rc)
        now = 0.0
        # Per-bank attack state: (current target row, remaining acts).
        targets: List[List[int]] = []
        for bank in range(self.banks):
            targets.append([rng.randint(0, self.dram.rows_per_bank), t_rrs])
        bank_free_ns = [0.0] * self.banks
        channel_free_ns = 0.0

        while result.activations < max_activations:
            rounds = self._credited_rounds(
                targets, now, channel_free_ns,
                (max_activations - result.activations) // self.banks,
            )
            if rounds:
                self._skip_rounds(rounds, targets, bank_free_ns, result)
                now = min(bank_free_ns)
                continue
            for bank in range(self.banks):
                if result.activations >= max_activations:
                    break
                target = targets[bank]
                if target[1] == 0:
                    target[0] = rng.randint(0, self.dram.rows_per_bank)
                    target[1] = t_rrs
                start = max(now, bank_free_ns[bank], channel_free_ns)
                act_time = start + self.dram.t_rc
                bank_free_ns[bank] = act_time
                target[1] -= 1
                result.activations += 1
                result.per_bank_activations[bank] = (
                    result.per_bank_activations.get(bank, 0) + 1
                )
                key = (0, 0, bank)
                row = target[0]
                physical = self.mitigation.route(key, row)
                action = self.mitigation.on_activation(key, row, physical, act_time)
                if not action.is_noop:
                    result.swaps += len(action.swaps)
                    if action.channel_block_ns > 0:
                        channel_free_ns = act_time + action.channel_block_ns
            # Advance the round-robin clock to the earliest free bank.
            now = min(bank_free_ns)
        result.elapsed_ns = max(max(bank_free_ns), channel_free_ns)
        return result

    def _credited_rounds(
        self,
        targets: List[List[int]],
        now: float,
        channel_free_ns: float,
        whole_rounds: int,
    ) -> int:
        """Round-robin rounds that may be skipped in bulk: every bank
        keeps its target and has run credit for them, and the channel
        is free, so each ACT issues the moment its bank is free."""
        if whole_rounds <= 0 or channel_free_ns > now:
            return 0
        rounds = whole_rounds
        for bank, (row, remaining) in enumerate(targets):
            key = (0, 0, bank)
            credit = self.mitigation.run_credit(
                key, row, self.mitigation.route(key, row), now
            )
            rounds = min(rounds, remaining, credit)
            if rounds <= 0:
                return 0
        return rounds

    def _skip_rounds(
        self,
        rounds: int,
        targets: List[List[int]],
        bank_free_ns: List[float],
        result: MultiBankResult,
    ) -> None:
        """Apply ``rounds`` credited rounds: each bank's clock takes one
        tRC add per ACT (the order the per-round loop adds in) and its
        tracker one run."""
        t_rc = self.dram.t_rc
        for bank, target in enumerate(targets):
            free = bank_free_ns[bank]
            for _ in range(rounds):
                free += t_rc
            bank_free_ns[bank] = free
            key = (0, 0, bank)
            row = target[0]
            self.mitigation.on_activation_run(
                key, row, self.mitigation.route(key, row), rounds
            )
            target[1] -= rounds
            result.per_bank_activations[bank] = (
                result.per_bank_activations.get(bank, 0) + rounds
            )
        result.activations += rounds * self.banks
