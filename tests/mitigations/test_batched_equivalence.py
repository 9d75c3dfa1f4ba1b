"""Batched activation path vs the scalar oracle: bit-identical runs.

The controller's batched path (deferral credits, run-grouped
``on_activation_batch`` flushes, bulk tracker updates, the sparse
forward-dict route view and the run-tally opt-out) must be
*observationally invisible*: for every mitigation, a full simulation
on the batched path must produce the same ``SimMetrics`` dict — hence
the same cache keys — as the scalar reference path, which a run selects
by setting ``batch_scope = None`` on the mitigation instance it built.
"""

import pytest

from repro.analysis.perf import run_workload
from repro.core.config import RRSConfig
from repro.core.rrs import RandomizedRowSwap
from repro.dram.config import DRAMConfig
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
    def test_hammered_banks_opt_out_and_stay_identical(self, scalar_loop):
        """At scale 64 the scaled T_RRS is tiny, so noop horizons sit
        near zero and mean run lengths fall under the opt-out cutoff:
        hammered banks must pin their credit to the -1 sentinel (the
        controller then routes them straight to the scalar oracle),
        and the results must still match the scalar run exactly. RRS
        defers through credits only in the scalar loop (the compiled
        loop runs its tracker in C), so the batched run takes it."""
        scale = 64

        def factory():
            return RandomizedRowSwap(
                RRSConfig.for_threshold(4800, DRAMConfig()).scaled(scale),
                _dram(scale),
            )

        with scalar_loop():
            batched, mitigation = _run(
                factory, batched=True, scale=scale, records=4_000
            )
        credits = [
            credit
            for state in mitigation._batch_states.values()
            for credit in state.credits
        ]
        assert -1 in credits, "no bank ever hit the opt-out sentinel"
        scalar, _ = _run(factory, batched=False, scale=scale, records=4_000)
        assert batched.to_dict() == scalar.to_dict()

    def test_window_reset_clears_the_opt_out(self):
        """Window rollover re-primes credits from fresh-state values,
        so an opted-out bank gets another chance next epoch."""
        from repro.mitigations.batching import BankBatchedMitigation

        class Recording(BankBatchedMitigation):
            name = "recording"

            def __init__(self):
                self.applied = []

            def on_activation(self, bank_key, row, physical_row, now_ns):
                from repro.mitigations.base import NOOP_OUTCOME

                return NOOP_OUTCOME

            def _apply_deferred(self, bank_key, rows, times, count):
                self.applied.append(list(rows[:count]))

            def _batch_credit(self, bank_key):
                from repro.mitigations.base import NO_DEADLINE

                return 0, NO_DEADLINE

        mitigation = Recording()
        key = (0, 0, 0)
        state = mitigation.make_batch_state(0, [key])
        # Zero credit -> every activation flushes as a run of one; the
        # tally crosses OPT_OUT_RUNS and pins the sentinel.
        for i in range(BankBatchedMitigation.OPT_OUT_RUNS):
            mitigation.on_activation_batch(key, [i], [float(i)])
        assert state.credits[0] == -1
        mitigation._flush_batch_buffers()
        mitigation._reset_batch_credits()
        assert state.credits[0] == 0  # re-primed from _batch_credit
        assert mitigation._run_tally == {}
