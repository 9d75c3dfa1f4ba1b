"""Command log and DDR protocol checker."""

import pytest

from repro.dram.bank import Bank
from repro.mem.cmdlog import CommandLog
from repro.utils.rng import DeterministicRng


@pytest.fixture
def logged_bank(small_dram):
    bank = Bank(small_dram)
    log = CommandLog(small_dram).attach(bank)
    return bank, log


def test_miss_emits_act_then_cas(logged_bank):
    bank, log = logged_bank
    bank.access(row=5, now_ns=0.0)
    kinds = [c.kind for c in log.commands]
    assert kinds == ["ACT", "CAS"]
    assert log.commands[1].time_ns - log.commands[0].time_ns == pytest.approx(
        bank.config.t_rcd
    )


def test_hit_emits_cas_only(logged_bank):
    bank, log = logged_bank
    first = bank.access(row=5, now_ns=0.0)
    bank.access(row=5, now_ns=first.data_ns)
    assert [c.kind for c in log.commands] == ["ACT", "CAS", "CAS"]


def test_conflict_emits_precharge(logged_bank):
    bank, log = logged_bank
    first = bank.access(row=5, now_ns=0.0)
    bank.access(row=6, now_ns=first.data_ns)
    assert [c.kind for c in log.commands] == ["ACT", "CAS", "PRE", "ACT", "CAS"]
    assert log.counts() == {"ACT": 2, "CAS": 2, "PRE": 1}


def test_simulated_stream_is_protocol_clean(small_dram):
    """The headline regression guard: a long random access stream
    produces a command log with zero DDR timing violations."""
    bank = Bank(small_dram)
    log = CommandLog(small_dram).attach(bank)
    rng = DeterministicRng(3)
    now = 0.0
    for _ in range(2000):
        outcome = bank.access(row=rng.randint(0, 64), now_ns=now)
        now = outcome.data_ns if rng.random() < 0.7 else now + 1.0
    assert len(log) > 2000
    assert log.violations() == []


def test_attack_stream_is_protocol_clean(small_dram):
    bank = Bank(small_dram)
    log = CommandLog(small_dram).attach(bank)
    now = 0.0
    for i in range(1000):
        now = bank.activate(100 + (i % 2), now)
    assert log.violations() == []


def test_checker_catches_trc_violation(small_dram):
    log = CommandLog(small_dram)
    log("ACT", 1, 0.0)
    log("PRE", 1, 10.0)
    log("ACT", 2, 20.0)  # only 20ns after the previous ACT (< tRC=45)
    rules = {v.rule for v in log.violations()}
    assert "tRC" in rules


def test_checker_catches_trp_violation(small_dram):
    log = CommandLog(small_dram)
    log("ACT", 1, 0.0)
    log("PRE", 1, 50.0)
    log("ACT", 2, 55.0)  # 5ns after PRE (< tRP=14)
    assert "tRP" in {v.rule for v in log.violations()}


def test_checker_catches_trcd_violation(small_dram):
    log = CommandLog(small_dram)
    log("ACT", 1, 0.0)
    log("CAS", 1, 5.0)  # 5ns after ACT (< tRCD=14)
    assert "tRCD" in {v.rule for v in log.violations()}


def test_checker_catches_wrong_row_cas(small_dram):
    log = CommandLog(small_dram)
    log("ACT", 1, 0.0)
    log("CAS", 2, 50.0)
    assert "CAS-to-wrong-row" in {v.rule for v in log.violations()}


def test_checker_catches_double_act(small_dram):
    log = CommandLog(small_dram)
    log("ACT", 1, 0.0)
    log("ACT", 2, 100.0)
    assert "ACT-on-open-bank" in {v.rule for v in log.violations()}


def test_violation_str(small_dram):
    violation = next(
        iter(
            CommandLog(small_dram).violations()
        ),
        None,
    )
    assert violation is None  # empty log: no violations
    log = CommandLog(small_dram)
    log("ACT", 1, 0.0)
    log("CAS", 1, 5.0)
    assert "tRCD" in str(log.violations()[0])