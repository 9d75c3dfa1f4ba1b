"""Attack-vs-defense matrix: the paper's core security claims.

Reduced-scale (T_RH=200, small bank) versions of the Table 7 /
Figure 1 stories so they run in test time; the benchmark harness runs
the full-scale versions.
"""

from repro.attacks.base import AttackHarness
from repro.attacks.patterns import (
    DoubleSidedAttack,
    HalfDoubleAttack,
    SingleSidedAttack,
)
from repro.attacks.rrs_adaptive import RRSAdaptiveAttack
from repro.core.config import RRSConfig
from repro.core.rrs import RandomizedRowSwap
from repro.dram.config import DRAMConfig
from repro.mitigations.graphene import Graphene
from repro.mitigations.ideal_vfm import IdealVictimRefresh
from repro.mitigations.none import NoMitigation
from repro.mitigations.para import PARA
from repro.mitigations.trr import TargetedRowRefresh

T_RH = 200
ROWS = 4096
# RRS security arguments depend on randomizing over the real row count
# (the birthday math collapses at toy bank sizes), so RRS tests use the
# paper's 128K rows per bank.
RRS_ROWS = 128 * 1024


def _dram(rows=ROWS):
    return DRAMConfig(
        channels=1, banks_per_rank=1, rows_per_bank=rows, row_size_bytes=1024
    )


def _rrs():
    config = RRSConfig(
        t_rh=T_RH,
        t_rrs=T_RH // 6,
        window_activations=200_000,
        rows_per_bank=RRS_ROWS,
        tracker_entries=200_000 // (T_RH // 6),
        rit_capacity_tuples=2 * (200_000 // (T_RH // 6)),
    )
    return RandomizedRowSwap(config, _dram(RRS_ROWS))


def _run(
    mitigation,
    attack_rows,
    acts=60_000,
    coupling=0.016,
    rows=ROWS,
    ideal_refresh=False,
):
    harness = AttackHarness(
        mitigation,
        _dram(rows),
        t_rh=T_RH,
        distance2_coupling=coupling,
        refresh_disturbs_neighbors=not ideal_refresh,
    )
    return harness.run(attack_rows, max_activations=acts)


def test_classic_defeats_unprotected():
    assert _run(NoMitigation(), SingleSidedAttack(100).rows()).succeeded


def test_double_sided_defeats_unprotected_faster():
    single = _run(NoMitigation(), SingleSidedAttack(100).rows())
    double = _run(NoMitigation(), DoubleSidedAttack(100).rows())
    assert double.succeeded
    assert double.activations <= single.activations


def test_vfm_stops_classic_patterns():
    """Table 7's 'mitigates classic Rowhammer' row: blast-radius-1
    physics and idealized (side-effect-free) victim refresh — the
    assumptions under which victim-focused mitigation is sound.
    Double-sided victims collect disturbance from both sides, so the
    mitigation threshold must be T_RH/4."""
    for mitigation in (
        Graphene(t_rh=T_RH, mitigation_threshold=T_RH // 4, rows_per_bank=ROWS),
        IdealVictimRefresh(
            t_rh=T_RH, mitigation_threshold=T_RH // 4, rows_per_bank=ROWS
        ),
        PARA(probability=0.05, rows_per_bank=ROWS, seed=1),
    ):
        result = _run(
            mitigation,
            DoubleSidedAttack(100).rows(),
            coupling=0.0,
            ideal_refresh=True,
        )
        assert not result.succeeded, mitigation.name


def test_vfm_self_defeats_under_realistic_distance2_physics():
    """With measured LPDDR4 distance-2 coupling, sustained hammering
    flips distance-2 rows even through victim-focused refreshes — the
    structural weakness RRS avoids."""
    graphene = Graphene(t_rh=T_RH, rows_per_bank=ROWS)
    result = _run(graphene, SingleSidedAttack(100).rows(), acts=100_000)
    assert result.succeeded
    assert all(abs(f.row - 100) == 2 for f in result.flips)


def test_half_double_defeats_trr():
    """The published Half-Double break: distance-2 flips through the
    in-DRAM sampling mitigation."""
    trr = TargetedRowRefresh(rows_per_bank=ROWS)
    attack = HalfDoubleAttack(victim=100, dose_interval=64)
    result = _run(trr, attack.rows(), acts=300_000)
    assert result.succeeded
    assert result.flips[0].row == 100  # the distance-2 victim


def test_half_double_defeats_aggressive_ideal_vfm():
    """Even perfect tracking fails when its refreshes are frequent: the
    refresh stream itself hammers the distance-2 victim."""
    vfm = IdealVictimRefresh(
        t_rh=T_RH, mitigation_threshold=16, rows_per_bank=ROWS
    )
    attack = HalfDoubleAttack(victim=100, dose_interval=10_000_000)
    result = _run(vfm, attack.rows(), acts=300_000)
    assert result.succeeded
    assert result.flips[0].row in (100, 104)  # distance 2 on either side
    assert result.flips[0].cause == "refresh"


def test_widening_blast_radius_does_not_save_vfm():
    """Section 2.5: 'mitigating Half-Double by refreshing two neighbors
    on each side is ineffective as the row at a distance of 3 from the
    Near-Aggressor could now incur bit-flips' — the refreshes of the
    distance-2 rows themselves disturb distance 3."""
    vfm = IdealVictimRefresh(
        t_rh=T_RH, mitigation_threshold=16, blast_radius=2, rows_per_bank=ROWS
    )
    attack = HalfDoubleAttack(victim=100, dose_interval=10_000_000)
    result = _run(vfm, attack.rows(), acts=600_000)
    assert result.succeeded
    near = 102
    assert all(abs(f.row - near) >= 3 for f in result.flips)


def test_rrs_stops_classic_patterns():
    for attack_rows in (
        SingleSidedAttack(100).rows(),
        DoubleSidedAttack(100).rows(),
    ):
        result = _run(_rrs(), attack_rows, acts=100_000, rows=RRS_ROWS)
        assert not result.succeeded


def test_rrs_stops_half_double():
    result = _run(_rrs(), HalfDoubleAttack(100).rows(), acts=300_000, rows=RRS_ROWS)
    assert not result.succeeded


def test_rrs_swaps_cap_per_location_activations():
    """Invariant 2's observable: under the adaptive attack no physical
    row accumulates T_RH activations within a short horizon (success
    needs the astronomically unlikely k-fold relocation collision)."""
    rrs = _rrs()
    harness = AttackHarness(rrs, _dram(RRS_ROWS), t_rh=T_RH)
    attack = RRSAdaptiveAttack(
        t_rrs=rrs.config.t_rrs, rows_per_bank=RRS_ROWS, seed=2
    )
    result = harness.run(attack.rows(), max_windows=1, max_activations=100_000)
    assert not result.succeeded
    assert result.swaps > 0


def test_rrs_under_adaptive_attack_duty_cycle():
    """The swap tax on the attacker (Section 5.3.1's D)."""
    rrs = _rrs()
    harness = AttackHarness(rrs, _dram(RRS_ROWS), t_rh=T_RH)
    attack = RRSAdaptiveAttack(
        t_rrs=rrs.config.t_rrs, rows_per_bank=RRS_ROWS, seed=2
    )
    result = harness.run(attack.rows(), max_activations=100_000, stop_on_flip=False)
    assert result.duty_cycle < 1.0
