"""Run-length attack replay equals the per-activation replay.

The attack harnesses charge a run of credited (guaranteed-noop)
activations of one row in one step. The oracle is the per-activation
step alone: a test-local proxy shadows the mitigation's ``run_credit``
with 0, which sends every activation through it — exactly the replay
the harness performed before it had a run path. Every comparison
covers the full result, the flips, the disturbance array, the bank's
timing and activation counts, the mitigation's state, and how many rows
were read from the attack stream.
"""

from dataclasses import astuple

import numpy as np
import pytest

from repro.attacks.base import RUN_CHUNK, AttackHarness
from repro.attacks.multibank import MultiBankAttackHarness
from repro.attacks.patterns import (
    DoubleSidedAttack,
    HalfDoubleAttack,
    ManySidedAttack,
    SingleSidedAttack,
)
from repro.attacks.rrs_adaptive import RRSAdaptiveAttack
from repro.core.config import RRSConfig
from repro.core.rrs import RandomizedRowSwap, SwapRateDetector
from repro.dram.config import DRAMConfig
from repro.dram.remap import RowScramble
from repro.mitigations.blockhammer import BlockHammer, BlockHammerConfig
from repro.mitigations.graphene import Graphene
from repro.mitigations.ideal_vfm import IdealVictimRefresh
from repro.mitigations.none import NoMitigation
from repro.mitigations.para import PARA
from repro.mitigations.trr import TargetedRowRefresh
from repro.obs.tracer import RingSink, Tracer

ROWS = 4096
T_RH = 150


def _dram(window_ns=None):
    extra = {} if window_ns is None else {"refresh_window_ns": window_ns}
    return DRAMConfig(
        channels=1, banks_per_rank=1, rows_per_bank=ROWS, row_size_bytes=1024, **extra
    )


def _rrs(detector=False, tracker_entries=48, rit_tuples=400, t_rrs=25):
    config = RRSConfig(
        t_rh=T_RH,
        t_rrs=t_rrs,
        window_activations=40_000,
        rows_per_bank=ROWS,
        tracker_entries=tracker_entries,
        rit_capacity_tuples=rit_tuples,
    )
    return RandomizedRowSwap(
        config,
        _dram(),
        detector=SwapRateDetector(flag_threshold=3) if detector else None,
    )


MITIGATIONS = {
    "none": NoMitigation,
    "rrs": _rrs,
    "rrs-detector": lambda: _rrs(detector=True),
    "graphene": lambda: Graphene(
        t_rh=T_RH,
        mitigation_threshold=40,
        window_activations=40_000,
        rows_per_bank=ROWS,
    ),
    "ideal-vfm": lambda: IdealVictimRefresh(
        t_rh=T_RH, mitigation_threshold=16, rows_per_bank=ROWS
    ),
    "trr": lambda: TargetedRowRefresh(
        t_refi_ns=2_000, sample_size=4, rows_per_bank=ROWS
    ),
    "para": lambda: PARA(probability=0.01, rows_per_bank=ROWS, seed=3),
    "blockhammer": lambda: BlockHammer(
        BlockHammerConfig(t_rh=T_RH, blacklist_threshold=40, window_ns=2_000_000)
    ),
}

# Mitigations whose every activation stays on the per-activation step.
NO_CREDIT = {"trr", "blockhammer"}

ATTACKS = {
    "single": lambda: SingleSidedAttack(100),
    "double": lambda: DoubleSidedAttack(200),
    "many": lambda: ManySidedAttack([300, 304, 308, 312, 500]),
    "halfdouble-2": lambda: HalfDoubleAttack(victim=700, dose_interval=2),
    "halfdouble-64": lambda: HalfDoubleAttack(victim=700, dose_interval=64),
    "halfdouble-inf": lambda: HalfDoubleAttack(victim=700, dose_interval=10**9),
    "adaptive": lambda: RRSAdaptiveAttack(t_rrs=25, rows_per_bank=ROWS, seed=5),
}


class _Counted:
    """An attack stream that counts the rows read from it."""

    def __init__(self, rows):
        self._rows = iter(rows)
        self.read = 0

    def __iter__(self):
        return self

    def __next__(self):
        row = next(self._rows)
        self.read += 1
        return row


def _per_activation(mitigation):
    """The oracle proxy: no activation is ever credited."""
    mitigation.run_credit = lambda *args: 0
    return mitigation


def _count_runs(mitigation):
    """Record the length of every run the harness applies."""
    runs = []
    apply_run = mitigation.on_activation_run

    def counted(bank_key, row, physical_row, count):
        runs.append(count)
        apply_run(bank_key, row, physical_row, count)

    mitigation.on_activation_run = counted
    return runs


def _plain(value):
    """Snapshot data in a form ``==`` compares exactly (arrays by
    bytes, dicts with their insertion order)."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, dict):
        return ("dict", [(key, _plain(item)) for key, item in value.items()])
    if isinstance(value, (list, tuple)):
        return tuple(_plain(item) for item in value)
    return value


def _replay(
    make_mitigation, attack, oracle, harness_kwargs=None, runs=1, traced=False,
    **run_kwargs,
):
    mitigation = make_mitigation()
    if oracle:
        _per_activation(mitigation)
    applied = _count_runs(mitigation)
    kwargs = {"t_rh": T_RH, **(harness_kwargs or {})}
    dram = kwargs.pop("dram", _dram())
    if traced:
        kwargs["tracer"] = Tracer(RingSink())
    harness = AttackHarness(mitigation, dram, **kwargs)
    rows = _Counted(attack.rows())
    results = [astuple(harness.run(rows, **run_kwargs)) for _ in range(runs)]
    state = {
        "results": results,
        "disturbance": harness.disturbance._disturbance.tobytes(),
        "flipped": harness.disturbance._flipped_this_window.tobytes(),
        "fault_window": harness.disturbance.window,
        "timing": harness.bank.timing.snapshot_state(),
        "bank": harness.bank.snapshot_state(),
        "now_ns": harness.now_ns,
        "window_index": harness.window_index,
        "mitigation": _plain(mitigation.snapshot_state()),
        "rows_read": rows.read,
        "rounds": getattr(attack, "rounds", None),
    }
    if harness.tracer is not None:
        state["events"] = [
            (e.category, e.name, e.ts_ns, e.args) for e in harness.tracer.events
        ]
    return state, applied


def _assert_equivalent(make_mitigation, make_attack, **kwargs):
    """Oracle and run replays agree; returns the run path's run lengths
    and the results of its ``run`` calls."""
    want, oracle_runs = _replay(make_mitigation, make_attack(), True, **kwargs)
    got, runs = _replay(make_mitigation, make_attack(), False, **kwargs)
    assert oracle_runs == []
    assert got == want
    return runs, got["results"]


def _share(runs, state_runs):
    """Fraction of the replay's activations applied through runs."""
    activations = state_runs[-1][0]
    return sum(runs) / activations if activations else 0.0


@pytest.mark.parametrize("stop_on_flip", [True, False])
@pytest.mark.parametrize("mitigation", sorted(MITIGATIONS))
@pytest.mark.parametrize("attack", sorted(ATTACKS))
def test_matrix_matches_per_activation(attack, mitigation, stop_on_flip):
    runs, results = _assert_equivalent(
        MITIGATIONS[mitigation],
        ATTACKS[attack],
        max_activations=3_000,
        stop_on_flip=stop_on_flip,
    )
    if mitigation in NO_CREDIT:
        assert runs == []
    elif attack in ("single", "halfdouble-inf", "adaptive"):
        assert _share(runs, results) > 0.5


@pytest.mark.parametrize("mitigation", ["none", "rrs", "graphene", "ideal-vfm", "trr"])
@pytest.mark.parametrize("attack", ["single", "halfdouble-64", "adaptive"])
def test_max_windows_on_short_window(attack, mitigation):
    # 45 ns tRC: about 700 activations per window, less what actions cost.
    runs, _ = _assert_equivalent(
        MITIGATIONS[mitigation],
        ATTACKS[attack],
        harness_kwargs={"dram": _dram(window_ns=31_517)},
        max_windows=5,
        stop_on_flip=False,
    )
    if mitigation != "trr":
        assert runs


@pytest.mark.parametrize("scheme", ["bitflip", "keyed"])
@pytest.mark.parametrize("mitigation", ["none", "graphene", "ideal-vfm", "rrs"])
def test_scrambled_wordlines(mitigation, scheme):
    _assert_equivalent(
        MITIGATIONS[mitigation],
        ATTACKS["halfdouble-64"],
        harness_kwargs={"scramble": RowScramble(ROWS, scheme=scheme, key=11)},
        max_activations=3_000,
        stop_on_flip=False,
    )


@pytest.mark.parametrize("mitigation", ["none", "rrs", "ideal-vfm"])
def test_traced_runs_emit_the_same_events(mitigation):
    runs, _ = _assert_equivalent(
        MITIGATIONS[mitigation],
        ATTACKS["halfdouble-64"],
        harness_kwargs={"dram": _dram(window_ns=45_000)},
        traced=True,
        max_activations=4_000,
        stop_on_flip=False,
    )
    assert runs


def test_multi_window_rrs_with_rit_evictions():
    """A RIT that holds one window's swaps but not eight windows' worth:
    later windows' swaps evict (un-swap) earlier windows' entries."""

    def make():
        return _rrs(tracker_entries=8, rit_tuples=120, t_rrs=20)

    def attack():
        return RRSAdaptiveAttack(t_rrs=20, rows_per_bank=ROWS, seed=2)

    dram = _dram(window_ns=45_000)
    runs, _ = _assert_equivalent(
        make, attack, harness_kwargs={"dram": dram}, max_windows=8
    )
    assert sum(runs) > 3_000
    mitigation = make()
    AttackHarness(mitigation, dram, t_rh=T_RH).run(attack().rows(), max_windows=8)
    assert sum(s.rit.evictions for s in mitigation._banks.values()) > 0


def test_tracker_evictions_inside_runs():
    """A many-sided pattern over more rows than the tracker holds: runs
    start on rows the full table spills or evicts for."""
    runs, _ = _assert_equivalent(
        lambda: _rrs(tracker_entries=3, t_rrs=40),
        lambda: ManySidedAttack([10 * i for i in range(1, 9)]),
        max_activations=3_000,
    )
    assert runs and set(runs) == {1}  # round-robin over 8 rows
    runs, _ = _assert_equivalent(
        lambda: _rrs(tracker_entries=3, t_rrs=40),
        lambda: _Repeat([10 * i for i in range(1, 9)], 30),
        max_activations=3_000,
    )
    assert sum(runs) > 1_000


class _Repeat:
    """Each row of ``rows`` ``times`` times in a row, cycling."""

    def __init__(self, rows, times):
        self.pattern = [row for row in rows for _ in range(times)]

    def rows(self):
        while True:
            yield from self.pattern


def test_second_run_after_a_flip():
    """stop_on_flip with flips already recorded: one activation per call."""
    runs, _ = _assert_equivalent(
        NoMitigation,
        ATTACKS["single"],
        runs=3,
        max_activations=1_000,
    )
    assert runs == [T_RH]


def test_runs_are_capped_at_the_chunk():
    runs, _ = _assert_equivalent(
        NoMitigation,
        ATTACKS["single"],
        harness_kwargs={"t_rh": 1e9},
        max_activations=2 * RUN_CHUNK + 10,
    )
    assert runs == [RUN_CHUNK, RUN_CHUNK, 10]


def test_flip_ends_a_run_without_stop_on_flip():
    runs, results = _assert_equivalent(
        NoMitigation, ATTACKS["single"], max_activations=400, stop_on_flip=False
    )
    assert runs == [T_RH, 400 - T_RH]
    assert len(results[0][5]) == 2  # rows 99 and 101 flip on activation T_RH


def test_finite_stream_ends_mid_run():
    def make_attack():
        return _Finite([5] * 37 + [9] * 3 + [5] * 12)

    _assert_equivalent(NoMitigation, make_attack, max_activations=1_000)
    _assert_equivalent(NoMitigation, make_attack, max_activations=45)


class _Finite:
    def __init__(self, rows):
        self._rows = rows

    def rows(self):
        return iter(self._rows)


def test_budget_stops_inside_a_run():
    runs, _ = _assert_equivalent(
        MITIGATIONS["rrs"], ATTACKS["adaptive"], max_activations=1_234
    )
    assert sum(runs) > 0


def test_observed_bank_stays_per_activation():
    commands = []

    def make():
        return NoMitigation()

    def replay(oracle):
        mitigation = make()
        if oracle:
            _per_activation(mitigation)
        runs = _count_runs(mitigation)
        harness = AttackHarness(mitigation, _dram(), t_rh=T_RH)
        harness.bank.timing.observer = lambda *event: commands.append(event)
        harness.run(SingleSidedAttack(50).rows(), max_activations=500)
        return harness.bank.timing.snapshot_state(), runs

    want, _ = replay(True)
    oracle_commands = list(commands)
    commands.clear()
    got, runs = replay(False)
    assert runs == []
    assert got == want
    assert commands == oracle_commands


def test_duty_cycle_uses_the_configured_trc():
    dram = DRAMConfig(
        channels=1, banks_per_rank=1, rows_per_bank=ROWS, row_size_bytes=1024, t_rc=50
    )
    result = AttackHarness(NoMitigation(), dram, t_rh=10_000).run(
        SingleSidedAttack(10).rows(), max_activations=1_000
    )
    assert result.elapsed_ns == pytest.approx(1_000 * 50)
    assert result.duty_cycle == pytest.approx(1.0)
    multi = MultiBankAttackHarness(NoMitigation, dram=dram, banks=2).run_adaptive(
        t_rrs=100, max_activations=1_000
    )
    assert multi.elapsed_ns == pytest.approx(500 * 50)
    assert multi.duty_cycle == pytest.approx(1.0)


# ----------------------------------------------------------------------
# MultiBankAttackHarness.run_adaptive
# ----------------------------------------------------------------------
def _adaptive(make_mitigation, banks, budget, oracle, t_rrs=800):
    created = []

    def factory():
        mitigation = make_mitigation()
        if oracle:
            _per_activation(mitigation)
        created.append(_count_runs(mitigation))
        return mitigation

    harness = MultiBankAttackHarness(factory, banks=banks)
    result = harness.run_adaptive(t_rrs=t_rrs, max_activations=budget, seed=4)
    state = {
        "result": astuple(result),
        "per_bank_order": list(result.per_bank_activations),
        "mitigation": _plain(harness.mitigation.snapshot_state()),
    }
    return state, created[0]


def _full_rrs():
    return RandomizedRowSwap(RRSConfig(), DRAMConfig())


@pytest.mark.parametrize("banks", [1, 3, 16])
@pytest.mark.parametrize(
    "make_mitigation", [_full_rrs, NoMitigation], ids=["rrs", "none"]
)
def test_run_adaptive_matches_per_activation(make_mitigation, banks):
    budget = 40_003 if banks > 1 else 20_011  # not a multiple of the bank count
    want, oracle_runs = _adaptive(make_mitigation, banks, budget, True)
    got, runs = _adaptive(make_mitigation, banks, budget, False)
    assert oracle_runs == []
    assert got == want
    assert sum(runs) > budget // 2
    if make_mitigation is _full_rrs:
        assert got["result"][1] > 0  # swaps happened between the runs


def test_run_adaptive_small_threshold_with_graphene():
    def make():
        return Graphene(t_rh=T_RH, mitigation_threshold=40, window_activations=40_000)

    want, _ = _adaptive(make, 5, 7_777, True, t_rrs=60)
    got, runs = _adaptive(make, 5, 7_777, False, t_rrs=60)
    assert got == want
    assert runs
