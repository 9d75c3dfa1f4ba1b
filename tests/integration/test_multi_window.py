"""Multi-window RRS behaviour: epoch rollover, lazy RIT drain, caps."""

from repro.attacks.base import AttackHarness
from repro.attacks.rrs_adaptive import RRSAdaptiveAttack
from repro.core.config import RRSConfig
from repro.core.rrs import RandomizedRowSwap
from repro.dram.config import DRAMConfig

ROWS = 128 * 1024
T_RH = 480


def _setup(windows_acts=40_000):
    t_rrs = T_RH // 6
    dram = DRAMConfig(
        channels=1,
        banks_per_rank=1,
        rows_per_bank=ROWS,
        row_size_bytes=1024,
        # Short windows so several epochs fit in a quick run.
        refresh_window_ns=windows_acts * 45,
    )
    config = RRSConfig(
        t_rh=T_RH,
        t_rrs=t_rrs,
        window_activations=windows_acts,
        rows_per_bank=ROWS,
        tracker_entries=windows_acts // t_rrs,
        rit_capacity_tuples=2 * (windows_acts // t_rrs),
    )
    rrs = RandomizedRowSwap(config, dram)
    return rrs, dram


def test_attack_across_windows_never_overflows_rit():
    rrs, dram = _setup()
    harness = AttackHarness(rrs, dram, t_rh=T_RH, distance2_coupling=0.0)
    attack = RRSAdaptiveAttack(t_rrs=rrs.config.t_rrs, rows_per_bank=ROWS, seed=5)
    result = harness.run(attack.rows(), max_windows=4, stop_on_flip=False)
    assert result.windows == 4
    state = rrs.bank_state((0, 0, 0))
    assert state.rit.entries_used <= state.rit.capacity_entries
    # Stale entries from earlier epochs were lazily evicted.
    assert state.rit.evictions > 0


def test_swap_history_has_one_entry_per_window():
    rrs, dram = _setup()
    harness = AttackHarness(rrs, dram, t_rh=T_RH, distance2_coupling=0.0)
    attack = RRSAdaptiveAttack(t_rrs=rrs.config.t_rrs, rows_per_bank=ROWS, seed=5)
    harness.run(attack.rows(), max_windows=3, stop_on_flip=False)
    assert len(rrs.swap_history) == 3
    assert all(count > 0 for count in rrs.swap_history)


def test_tracker_resets_each_window():
    rrs, dram = _setup()
    harness = AttackHarness(rrs, dram, t_rh=T_RH, distance2_coupling=0.0)
    attack = RRSAdaptiveAttack(t_rrs=rrs.config.t_rrs, rows_per_bank=ROWS, seed=5)
    harness.run(attack.rows(), max_windows=2, stop_on_flip=False)
    state = rrs.bank_state((0, 0, 0))
    # The tracker holds only current-window rows: far fewer than a
    # whole epoch's worth of attack targets.
    assert len(state.tracker) <= rrs.config.tracker_entries


def test_swaps_per_window_is_steady_under_attack():
    """The swap rate the attacker can induce is bounded by
    ACT_max/T_RRS per window — Invariant sizing (Section 4.5)."""
    rrs, dram = _setup()
    harness = AttackHarness(rrs, dram, t_rh=T_RH, distance2_coupling=0.0)
    attack = RRSAdaptiveAttack(t_rrs=rrs.config.t_rrs, rows_per_bank=ROWS, seed=6)
    harness.run(attack.rows(), max_windows=3, stop_on_flip=False)
    ceiling = rrs.config.max_swaps_per_window
    assert all(count <= ceiling * 1.05 for count in rrs.swap_history)