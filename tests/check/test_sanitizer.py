"""DDR4 protocol sanitizer: fault injection and clean-run silence.

Every timing rule gets a deliberately illegal command sequence and an
assertion on the *exact* ``ProtocolViolation.rule`` id; the RRS audits
get corrupted RIT states; and a fig6-scale clean run proves the checks
are silent on legal traffic.
"""

from __future__ import annotations

from collections import deque
from types import SimpleNamespace

import pytest

from repro.check.sanitizer import (
    BankCommandChecker,
    ProtocolSanitizer,
    ProtocolViolation,
    RefreshCadenceChecker,
    TracedCommand,
    _checked_destination_picker,
    audit_rit,
    sanitize_enabled,
)
from repro.core.rit import RITEntry, RowIndirectionTable
from repro.dram.config import DRAMConfig
from repro.dram.timing import chain_observer
from repro.mem.system import SystemConfig, SystemSimulator
from repro.obs import Observability
from repro.workloads.suites import get_workload
from repro.workloads.synthetic import SyntheticTraceGenerator


def _raises_rule(rule):
    return pytest.raises(ProtocolViolation, match=rule)


# ----------------------------------------------------------------------
# DDR timing rules (per-bank)
# ----------------------------------------------------------------------
class TestBankTimingRules:
    """Paper Table 2 timing: tRCD=14, tRP=14, tRC=45, tRAS=tRC-tRP=31."""

    def test_trcd_violation_act_then_early_read(self, paper_dram):
        checker = BankCommandChecker(paper_dram)
        checker("ACT", 1, 0.0)
        with pytest.raises(ProtocolViolation) as exc:
            checker("CAS", 1, paper_dram.t_rcd - 5.0)
        assert exc.value.rule == "DDR-tRCD"
        assert exc.value.command == TracedCommand(
            "CAS", 1, paper_dram.t_rcd - 5.0
        )
        # The trace window carries the offending bank's recent history.
        assert exc.value.window == (TracedCommand("ACT", 1, 0.0),)

    def test_trc_violation_back_to_back_acts(self, paper_dram):
        checker = BankCommandChecker(paper_dram)
        checker("ACT", 1, 0.0)
        checker("PRE", 1, 31.0)
        with _raises_rule("DDR-tRC"):
            checker("ACT", 2, 40.0)

    def test_trp_violation_act_too_soon_after_pre(self, paper_dram):
        checker = BankCommandChecker(paper_dram)
        checker("ACT", 1, 0.0)
        checker("PRE", 1, 40.0)
        with _raises_rule("DDR-tRP"):
            checker("ACT", 2, 50.0)  # tRC fine (50ns), tRP gap only 10ns

    def test_tras_violation_early_precharge(self, paper_dram):
        checker = BankCommandChecker(paper_dram)
        checker("ACT", 1, 0.0)
        with _raises_rule("DDR-tRAS"):
            checker("PRE", 1, 20.0)  # row must stay open 31ns

    def test_open_row_act_on_open_bank(self, paper_dram):
        checker = BankCommandChecker(paper_dram)
        checker("ACT", 1, 0.0)
        with _raises_rule("DDR-OPEN-ROW"):
            checker("ACT", 2, 100.0)

    def test_open_row_pre_on_closed_bank(self, paper_dram):
        checker = BankCommandChecker(paper_dram)
        with _raises_rule("DDR-OPEN-ROW"):
            checker("PRE", 1, 0.0)

    def test_open_row_cas_to_wrong_row(self, paper_dram):
        checker = BankCommandChecker(paper_dram)
        checker("ACT", 1, 0.0)
        with _raises_rule("DDR-OPEN-ROW"):
            checker("CAS", 2, 20.0)

    def test_legal_sequence_is_silent(self, paper_dram):
        checker = BankCommandChecker(paper_dram)
        checker("ACT", 1, 0.0)
        checker("CAS", 1, 14.0)
        checker("PRE", 1, 31.0)
        checker("ACT", 2, 45.0)
        checker("CAS", 2, 59.0)
        assert checker.commands_seen == 5


class TestRankLevelRules:
    """tRRD/tFAW are rank-wide: banks share one ACT history deque."""

    def test_trrd_violation_across_banks(self):
        config = DRAMConfig(t_rrd=5)
        history = deque(maxlen=8)
        bank_a = BankCommandChecker(config, bank=(0, 0, 0), rank_act_history=history)
        bank_b = BankCommandChecker(config, bank=(0, 0, 1), rank_act_history=history)
        bank_a("ACT", 1, 0.0)
        with _raises_rule("DDR-tRRD"):
            bank_b("ACT", 2, 3.0)

    def test_tfaw_violation_five_acts_in_window(self):
        config = DRAMConfig(t_faw=30)
        history = deque(maxlen=8)
        checkers = [
            BankCommandChecker(config, bank=(0, 0, i), rank_act_history=history)
            for i in range(5)
        ]
        for i in range(4):
            checkers[i]("ACT", 1, float(i))
        with _raises_rule("DDR-tFAW"):
            checkers[4]("ACT", 1, 25.0)  # 5th ACT only 25ns after the 1st

    def test_rank_rules_disabled_by_default(self, paper_dram):
        """The simulator does not model rank-level ACT pacing, so the
        default config (t_rrd=0, t_faw=0) must not check them."""
        assert paper_dram.t_rrd == 0 and paper_dram.t_faw == 0
        history = deque(maxlen=8)
        checkers = [
            BankCommandChecker(paper_dram, bank=(0, 0, i), rank_act_history=history)
            for i in range(5)
        ]
        for i in range(5):
            checkers[i]("ACT", 1, float(i))  # would violate both if enabled


class TestRefreshCadence:
    def test_trefi_violation_on_late_burst(self, paper_dram):
        checker = RefreshCadenceChecker(paper_dram)
        checker(0.0, 1)
        checker(paper_dram.t_refi, 1)  # exactly one tREFI later
        assert checker.bursts_seen == 2
        with _raises_rule("DDR-tREFI"):
            checker(2.5 * paper_dram.t_refi, 1)

    @pytest.mark.parametrize("first", ["obs", "sanitizer"])
    def test_both_refresh_observers_fire(self, first, monkeypatch):
        """The sanitizer's cadence checker and obs's refresh probe chain
        onto the scheduler in either install order: both see every
        burst."""
        dram = DRAMConfig().scaled(128)
        obs = Observability(tracer=None, export_extra=False)
        if first == "sanitizer":
            monkeypatch.setenv("REPRO_SANITIZE", "1")
            sim = SystemSimulator(SystemConfig(dram=dram, cores=2), obs=obs)
            sanitizer = sim.sanitizer
        else:
            sim = SystemSimulator(SystemConfig(dram=dram, cores=2), obs=obs)
            sanitizer = ProtocolSanitizer(dram).install(sim)
        spec = get_workload("hmmer")
        sim.run([
            SyntheticTraceGenerator(
                spec.component_for_core(core), core_id=core, cores=2, config=dram
            ).records(3_000)
            for core in range(2)
        ])
        bursts = sim.refresh.refresh_bursts
        assert bursts > 0
        assert obs.registry.counter("refresh.bursts").value == bursts
        assert sanitizer.refresh_checker.bursts_seen == bursts


# ----------------------------------------------------------------------
# RRS swap-machinery audits
# ----------------------------------------------------------------------
class TestRITAudit:
    def test_clean_rit_passes(self):
        rit = RowIndirectionTable(capacity_tuples=8)
        rit.swap(1, 2)
        rit.swap(3, 4)
        audit_rit(rit)

    def test_duplicate_physical_target(self):
        rit = RowIndirectionTable(capacity_tuples=8)
        rit._map[1] = RITEntry(physical=5, window=0)
        rit._map[2] = RITEntry(physical=5, window=0)
        rit._inverse[5] = 1
        rit._inverse[6] = 2
        with pytest.raises(ProtocolViolation) as exc:
            audit_rit(rit)
        assert exc.value.rule == "RRS-RIT-BIJECTIVE"
        assert "physical row 5" in str(exc.value)

    def test_forward_inverse_size_mismatch(self):
        rit = RowIndirectionTable(capacity_tuples=8)
        rit.swap(1, 2)
        rit._map[3] = RITEntry(physical=2, window=0)  # aliases row 2's slot
        with _raises_rule("RRS-RIT-BIJECTIVE"):
            audit_rit(rit)

    def test_identity_entry_rejected(self):
        rit = RowIndirectionTable(capacity_tuples=8)
        rit._map[7] = RITEntry(physical=7, window=0)
        rit._inverse[7] = 7
        with _raises_rule("RRS-RIT-BIJECTIVE"):
            audit_rit(rit)

    def test_inverse_disagreement(self):
        rit = RowIndirectionTable(capacity_tuples=8)
        rit._map[1] = RITEntry(physical=5, window=0)
        rit._inverse[5] = 9
        with _raises_rule("RRS-RIT-BIJECTIVE"):
            audit_rit(rit)

    def test_capacity_overflow(self):
        rit = RowIndirectionTable(capacity_tuples=1)
        for logical, physical in ((1, 2), (2, 1), (3, 4), (4, 3)):
            rit._map[logical] = RITEntry(physical=physical, window=0)
            rit._inverse[physical] = logical
        with _raises_rule("RRS-RIT-CAPACITY"):
            audit_rit(rit)

    def test_cat_shadow_divergence(self):
        rit = RowIndirectionTable(capacity_tuples=8, use_cat=True)
        rit.swap(1, 2)
        audit_rit(rit)  # CAT in sync: clean
        rit._cat.remove(1)  # shadow loses an entry the map still has
        with _raises_rule("RRS-CAT-ALIAS"):
            audit_rit(rit)

    def test_violation_carries_bank(self):
        rit = RowIndirectionTable(capacity_tuples=8)
        rit._map[7] = RITEntry(physical=7, window=0)
        rit._inverse[7] = 7
        with pytest.raises(ProtocolViolation) as exc:
            audit_rit(rit, bank=(0, 0, 3))
        assert exc.value.bank == (0, 0, 3)


class TestDestinationPicker:
    @staticmethod
    def _state(swapped=(), tracked=()):
        rit = RowIndirectionTable(capacity_tuples=8)
        for a, b in swapped:
            rit.swap(a, b)
        return SimpleNamespace(rit=rit, tracker=set(tracked))

    @staticmethod
    def _mitigation(destination, exclude=False):
        return SimpleNamespace(
            _pick_destination=lambda state, row, tracked: destination,
            config=SimpleNamespace(exclude_tracked_destinations=exclude),
        )

    def test_destination_already_in_rit_rejected(self):
        checked = _checked_destination_picker(self._mitigation(2))
        with _raises_rule("RRS-CAT-ALIAS"):
            state = self._state(swapped=[(1, 2)])
            checked(state, row=9, tracked=state.tracker.__contains__)

    def test_destination_aliasing_tracked_hot_row_rejected(self):
        checked = _checked_destination_picker(self._mitigation(7, exclude=True))
        with _raises_rule("RRS-CAT-ALIAS"):
            state = self._state(tracked=[7])
            checked(state, row=9, tracked=state.tracker.__contains__)

    def test_clean_destination_passes_through(self):
        checked = _checked_destination_picker(self._mitigation(9))
        state = self._state(swapped=[(1, 2)], tracked=[7])
        assert checked(state, row=3, tracked=state.tracker.__contains__) == 9


# ----------------------------------------------------------------------
# Installation and clean-run silence
# ----------------------------------------------------------------------
def _smoke_simulator(records=3000, scale=128):
    from repro.core.config import RRSConfig
    from repro.core.rrs import RandomizedRowSwap
    from repro.mem.cpu import CoreConfig
    from repro.mem.system import SystemConfig, SystemSimulator
    from repro.workloads.suites import get_workload
    from repro.workloads.synthetic import SyntheticTraceGenerator

    dram = DRAMConfig().scaled(scale)
    config = SystemConfig(dram=dram, core=CoreConfig(), cores=2)
    mitigation = RandomizedRowSwap(
        RRSConfig.for_threshold(4800, DRAMConfig()).scaled(scale),
        dram,
        rit_use_cat=True,
    )
    simulator = SystemSimulator(config, mitigation=mitigation)
    spec = get_workload("hmmer")
    traces = [
        SyntheticTraceGenerator(spec, core_id=core).records(records)
        for core in range(config.cores)
    ]
    return simulator, traces, spec


def test_observer_chaining_preserves_existing_observer(paper_dram):
    seen = []
    timing = SimpleNamespace(observer=lambda k, r, t: seen.append((k, r, t)))
    checker = BankCommandChecker(paper_dram)
    chain_observer(timing, checker)
    timing.observer("ACT", 3, 0.0)
    assert seen == [("ACT", 3, 0.0)]
    assert checker.commands_seen == 1


def test_clean_fig6_scale_run_fires_nothing():
    """A swap-heavy RRS run under full instrumentation raises nothing
    and demonstrably exercised both the command and the audit paths."""
    simulator, traces, spec = _smoke_simulator()
    sanitizer = ProtocolSanitizer(simulator.config.dram).install(simulator)
    metrics = simulator.run(traces, workload=spec.name)
    assert sanitizer.commands_checked > 1000
    assert sanitizer.audits > 0  # swaps actually happened and were audited
    assert metrics.swaps == sanitizer.audits


def test_env_var_auto_installs_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert sanitize_enabled()
    simulator, traces, spec = _smoke_simulator(records=500)
    assert simulator.sanitizer is not None
    simulator.run(traces, workload=spec.name)
    assert simulator.sanitizer.commands_checked > 0


def test_sanitizer_off_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert not sanitize_enabled()
    simulator, _, _ = _smoke_simulator(records=10)
    assert simulator.sanitizer is None
