"""End-to-end validation of the Section 5 security model.

Table 4's numbers are analytic (Eq. 3) because the real configuration's
expected attack time is years. At a deliberately weakened design point
(small bank, shrunken window, k=3) the expected attack time is a few
windows — so the *whole stack* (adaptive attacker -> tracker -> RIT ->
random swaps -> disturbance model -> bit flip) can be run to success
and the measured windows-until-success compared against the same
formula that generates Table 4.
"""

from repro.analysis.security import attack_iterations
from repro.attacks.base import AttackHarness
from repro.attacks.rrs_adaptive import RRSAdaptiveAttack
from repro.core.config import RRSConfig
from repro.core.rrs import RandomizedRowSwap
from repro.dram.config import DRAMConfig

ROWS = 8192
T_RRS = 100
K = 3
T_RH = K * T_RRS
WINDOW_ACTS = 50_000


def _attack_once(seed: int):
    dram = DRAMConfig(
        channels=1,
        banks_per_rank=1,
        rows_per_bank=ROWS,
        row_size_bytes=1024,
        refresh_window_ns=WINDOW_ACTS * 45,
    )
    rrs = RandomizedRowSwap(
        RRSConfig(
            t_rh=T_RH,
            t_rrs=T_RRS,
            window_activations=WINDOW_ACTS,
            rows_per_bank=ROWS,
            tracker_entries=WINDOW_ACTS // T_RRS,
            rit_capacity_tuples=2 * (WINDOW_ACTS // T_RRS),
            # The model randomizes over the whole bank; keep the
            # destination domain identical.
            exclude_tracked_destinations=False,
        ),
        dram,
    )
    harness = AttackHarness(rrs, dram, t_rh=T_RH, distance2_coupling=0.0)
    attack = RRSAdaptiveAttack(t_rrs=T_RRS, rows_per_bank=ROWS, seed=seed)
    result = harness.run(attack.rows(), max_windows=60)
    return result


def test_measured_attack_time_matches_equation3():
    """Measured windows-until-success sits in the Eq. 3 regime."""
    predicted = attack_iterations(
        T_RRS,
        T_RH,
        rows_per_bank=ROWS,
        acts_per_window=WINDOW_ACTS,
    )
    assert 1 <= predicted <= 30  # the point is chosen to be measurable

    measured = []
    for seed in range(4):
        result = _attack_once(seed)
        assert result.succeeded, "weakened design point must be breakable"
        measured.append(result.flips[0].window + 1)
    mean_measured = sum(measured) / len(measured)
    # The per-location model ignores that a victim row collects
    # disturbance from both physical neighbours, so simulation succeeds
    # somewhat faster; order of magnitude must match.
    assert predicted / 8 <= mean_measured <= predicted * 4


def test_success_needs_k_swap_loads_on_one_neighbourhood():
    """The winning flip's disturbance is ~k * T_RRS (the mechanism the
    model counts), not a slow accumulation artifact."""
    result = _attack_once(seed=11)
    assert result.succeeded
    flip = result.flips[0]
    assert flip.disturbance >= T_RH
    assert flip.disturbance <= T_RH + 2 * T_RRS  # no silent over-count
