"""Deferred activations vs the per-activation hook: bit-identical runs.

The compiled loop's deferral (credits, run-grouped
``on_activation_batch`` flushes, bulk tracker updates and the
run-tally opt-out) must be *observationally invisible*: for every
mitigation, a full simulation that defers must produce the same
``SimMetrics`` dict — hence the same cache keys — as one that calls
``on_activation`` for every activation, which a run selects by setting
``batch_scope = None`` on the mitigation instance it built.
"""

import dataclasses

import pytest

from repro.analysis.perf import run_workload
from repro.core.config import RRSConfig
from repro.core.rrs import RandomizedRowSwap
from repro.dram.address import AddressMapper
from repro.dram.config import DRAMConfig
from repro.mem import block_kernel
from repro.mitigations.blockhammer import BlockHammer, BlockHammerConfig
from repro.mitigations.graphene import Graphene
from repro.mitigations.para import PARA
from repro.mitigations.trr import TargetedRowRefresh
from repro.workloads.suites import get_workload

SCALE = 32
RECORDS = 1_000
CORES = 2


def _dram(scale=SCALE):
    return DRAMConfig().scaled(scale)


def _factories(scale=SCALE):
    dram = _dram(scale)
    scaled_t_rh = max(12, 4800 // scale)
    return {
        "rrs": lambda: RandomizedRowSwap(
            RRSConfig.for_threshold(4800, DRAMConfig()).scaled(scale), dram
        ),
        "graphene": lambda: Graphene(
            t_rh=scaled_t_rh,
            window_activations=dram.acts_per_refresh_window,
            rows_per_bank=dram.rows_per_bank,
        ),
        "trr": lambda: TargetedRowRefresh(rows_per_bank=dram.rows_per_bank),
        "para": lambda: PARA(rows_per_bank=dram.rows_per_bank),
        "blockhammer": lambda: BlockHammer(
            BlockHammerConfig(
                t_rh=scaled_t_rh,
                blacklist_threshold=max(2, 512 // scale),
                window_ns=dram.refresh_window_ns,
            )
        ),
    }


def _run(factory, batched, workload="hmmer", scale=SCALE, records=RECORDS,
         seed=0, cores=CORES):
    mitigation = factory()
    if not batched:
        mitigation.batch_scope = None
    metrics = run_workload(
        get_workload(workload),
        mitigation,
        scale=scale,
        records_per_core=records,
        cores=cores,
        seed=seed,
    )
    return metrics, mitigation


class TestBatchedScalarEquivalence:
    @pytest.mark.parametrize("name", sorted(_factories()))
    @pytest.mark.parametrize("workload", ["hmmer", "stream"])
    def test_full_run_bit_identical(self, name, workload):
        factory = _factories()[name]
        batched, _ = _run(factory, batched=True, workload=workload)
        scalar, _ = _run(factory, batched=False, workload=workload)
        assert batched.to_dict() == scalar.to_dict()

    @pytest.mark.parametrize("name", ["rrs", "para"])
    def test_seed_variation_bit_identical(self, name):
        factory = _factories()[name]
        for seed in (1, 3):
            batched, _ = _run(factory, batched=True, seed=seed)
            scalar, _ = _run(factory, batched=False, seed=seed)
            assert batched.to_dict() == scalar.to_dict()

    def test_rrs_exercises_real_swaps(self):
        """The equivalence claim is vacuous unless the run actually
        triggers mitigation actions through the batched flush path —
        scale 64 shrinks T_RRS enough that hmmer forces swaps."""
        scale = 64
        factory = _factories(scale)["rrs"]
        batched, mitigation = _run(
            factory, batched=True, scale=scale, records=6_000, cores=8
        )
        assert mitigation.total_swaps > 0
        assert batched.swaps == mitigation.total_swaps
        scalar, _ = _run(
            factory, batched=False, scale=scale, records=6_000, cores=8
        )
        assert batched.to_dict() == scalar.to_dict()

    def test_sanitized_run_bit_identical(self, monkeypatch):
        """REPRO_SANITIZE=1 installs the DDR4 protocol auditor (which
        also disables the controller's inline timing fast path), so
        this pins batched == scalar on the observer-laden slow path
        while the sanitizer checks every command it sees."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        factory = _factories()["rrs"]
        batched, _ = _run(factory, batched=True)
        scalar, _ = _run(factory, batched=False)
        assert batched.to_dict() == scalar.to_dict()


class TestOptOut:
    def test_hammered_banks_opt_out_and_stay_identical(self, monkeypatch, scalar_loop):
        """At scale 64 the scaled T_RRS is tiny, so noop horizons sit
        near zero and mean run lengths fall under the opt-out cutoff.
        RRS with the CAT tracker defers through credits in the compiled
        loop (the array tracker runs in C instead), so hammered banks
        opt out there: after a bank's first activation, which arms it,
        ``on_activation`` is reached directly only from an opted-out
        bank. The results still match the per-activation scalar loop."""
        scale = 64

        def factory():
            return RandomizedRowSwap(
                dataclasses.replace(
                    RRSConfig.for_threshold(4800, DRAMConfig()).scaled(scale),
                    tracker_backend="cat",
                ),
                _dram(scale),
            )

        calls = {"on_activation": 0, "on_activation_batch": 0}
        for name in calls:
            original = getattr(RandomizedRowSwap, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(RandomizedRowSwap, name, counted)
        deferred, _ = _run(factory, batched=True, scale=scale, records=4_000)
        assert calls["on_activation_batch"] >= block_kernel.OPT_OUT_RUNS
        # Each flush makes one on_activation call; arming makes at most
        # one per bank.
        direct = calls["on_activation"] - calls["on_activation_batch"]
        banks = len(AddressMapper(_dram(scale)).bank_key_table)
        assert direct > banks, "no bank ever opted out"
        with scalar_loop():
            scalar, _ = _run(factory, batched=True, scale=scale, records=4_000)
        assert deferred.to_dict() == scalar.to_dict()

    def test_window_reset_clears_the_opt_out(self):
        """A bank with zero credit flushes runs of one until the tally
        opts it out; the next window's credit comes from a fresh
        ``batch_credit`` and defers again."""
        from repro.mitigations.base import INFINITE_CREDIT, NO_DEADLINE, NOOP_OUTCOME
        from repro.mitigations.batching import BankBatchedMitigation

        class Recording(BankBatchedMitigation):
            name = "recording"

            def __init__(self):
                self.window = 0
                self.events = []

            def on_activation(self, bank_key, row, physical_row, now_ns):
                self.events.append((self.window, bank_key, "act"))
                return NOOP_OUTCOME

            def on_activation_batch(self, bank_key, rows, cycles):
                self.events.append((self.window, bank_key, "flush"))
                return super().on_activation_batch(bank_key, rows, cycles)

            def apply_deferred(self, bank_key, rows, times):
                self.events.append((self.window, bank_key, "deferred"))

            def batch_credit(self, bank_key):
                return (INFINITE_CREDIT if self.window else 0), NO_DEADLINE

            def on_window_end(self, window_index):
                self.window += 1

        scale = 256
        mitigation = Recording()
        metrics = run_workload(
            get_workload("hmmer"), mitigation, scale=scale,
            records_per_core=6_000, cores=4,
        )
        assert metrics.windows == 2
        by_bank = {}
        for window, key, event in mitigation.events:
            by_bank.setdefault(key, []).append((window, event))
        opted = 0
        for events in by_bank.values():
            first = [event for window, event in events if window == 0]
            runs = block_kernel.OPT_OUT_RUNS
            if len(first) > 2 * (runs + 1):
                # arm, OPT_OUT_RUNS flushes (each an "act" inside a
                # "flush"), then direct activations only
                assert first[:3] == ["act", "flush", "act"]
                assert first.count("flush") == runs
                assert set(first[1 + 2 * runs:]) == {"act"}
                opted += 1
            later = {event for window, event in events if window > 0}
            assert later <= {"deferred"}
        assert opted
        assert any(
            event == "deferred" for window, _, event in mitigation.events if window
        )
