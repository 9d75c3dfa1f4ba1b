"""Block loop vs the scalar oracle: bit-identical runs.

``run_block_loop`` (the compiled system loop) is checked against its
registered oracle ``SystemSimulator._run_scalar``: full simulations run
once as production dispatches them and once forced onto the scalar loop
(the ``scalar_loop`` fixture), across every mitigation and
representative workloads, with and without ``REPRO_SANITIZE=1`` and
with the fault model attached. ``TestLoopDispatch`` pins which loop a
run takes and which mitigation hooks the compiled loop calls.
"""

import dataclasses

import pytest

import repro.mem.system as system_module
from repro.mem import block_kernel
from repro.analysis.perf import run_workload
from repro.core.config import RRSConfig
from repro.core.rrs import RandomizedRowSwap
from repro.dram.config import DRAMConfig
from repro.mem.system import SystemConfig, SystemSimulator
from repro.mitigations.blockhammer import BlockHammer, BlockHammerConfig
from repro.mitigations.graphene import Graphene
from repro.mitigations.none import NoMitigation
from repro.mitigations.para import PARA
from repro.mitigations.trr import TargetedRowRefresh
from repro.obs import Observability
from repro.workloads.suites import get_workload
from repro.workloads.synthetic import SyntheticTraceGenerator

SCALE = 32
RECORDS = 1_000
CORES = 2


def _dram(scale=SCALE):
    return DRAMConfig().scaled(scale)


def _factories(scale=SCALE):
    dram = _dram(scale)
    scaled_t_rh = max(12, 4800 // scale)
    rrs_config = RRSConfig.for_threshold(4800, DRAMConfig()).scaled(scale)
    return {
        "none": NoMitigation,
        "rrs": lambda: RandomizedRowSwap(rrs_config, dram),
        # Every activation goes through on_activation (no C tracker).
        "rrs_cat": lambda: RandomizedRowSwap(
            dataclasses.replace(rrs_config, tracker_backend="cat"), dram
        ),
        # A threshold of 3 makes both hmmer and stream refresh within
        # 1,000 records per core, so the compiled run calls on_hot_row.
        "graphene": lambda: Graphene(
            t_rh=scaled_t_rh,
            mitigation_threshold=3,
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


def _run(factory, workload="hmmer", records=RECORDS, seed=0,
         with_faults=False, obs=None):
    return run_workload(
        get_workload(workload),
        factory(),
        scale=SCALE,
        records_per_core=records,
        cores=CORES,
        seed=seed,
        with_faults=with_faults,
        obs=obs,
    )


class TestBlockLoopEquivalence:
    """run_block_loop vs SystemSimulator._run_scalar (system-loop pair)."""

    @pytest.mark.parametrize("name", sorted(_factories()))
    @pytest.mark.parametrize("workload", ["hmmer", "stream"])
    def test_full_run_bit_identical(self, name, workload, scalar_loop):
        factory = _factories()[name]
        mitigation = factory()
        block = _run(lambda: mitigation, workload=workload)
        with scalar_loop():
            scalar = _run(factory, workload=workload)
        assert block.to_dict() == scalar.to_dict()
        if name == "graphene":
            assert mitigation.refreshes_issued > 0

    @pytest.mark.parametrize("name", ["rrs", "rrs_cat"])
    def test_rrs_exercises_real_swaps(self, name, scalar_loop):
        """The equivalence claim is vacuous for RRS unless the run
        swaps: scale 64 shrinks T_RRS enough that hmmer forces swaps,
        which the array tracker reaches through on_hot_row and the CAT
        tracker through on_activation."""
        scale = 64
        factory = _factories(scale)[name]
        mitigation = factory()
        block = run_workload(
            get_workload("hmmer"), mitigation, scale=scale,
            records_per_core=6_000, cores=8,
        )
        assert mitigation.total_swaps > 0
        assert block.swaps == mitigation.total_swaps
        with scalar_loop():
            scalar = run_workload(
                get_workload("hmmer"), factory(), scale=scale,
                records_per_core=6_000, cores=8,
            )
        assert block.to_dict() == scalar.to_dict()

    @pytest.mark.parametrize("workload", ["bzip2", "gromacs"])
    def test_remaining_suite_workloads_bit_identical(self, workload, scalar_loop):
        factory = _factories()["rrs"]
        block = _run(factory, workload=workload)
        with scalar_loop():
            scalar = _run(factory, workload=workload)
        assert block.to_dict() == scalar.to_dict()

    @pytest.mark.parametrize("name", ["none", "rrs", "para"])
    def test_sanitized_run_bit_identical(self, name, scalar_loop, monkeypatch):
        """REPRO_SANITIZE=1 chains observers onto every bank, which
        sends the run to the scalar loop; results must not move."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        factory = _factories()[name]
        block = _run(factory)
        with scalar_loop():
            scalar = _run(factory)
        assert block.to_dict() == scalar.to_dict()

    def test_sanitized_equals_unsanitized(self, monkeypatch):
        """The sanitizer itself must be observationally invisible."""
        factory = _factories()["rrs"]
        plain = _run(factory)
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        sanitized = _run(factory)
        assert plain.to_dict() == sanitized.to_dict()

    def test_faulted_run_bit_identical(self, scalar_loop):
        """A fault model needs per-ACT callbacks, which sends the run
        to the scalar loop; results must not move."""
        factory = _factories()["rrs"]
        block = _run(factory, with_faults=True)
        with scalar_loop():
            scalar = _run(factory, with_faults=True)
        assert block.to_dict() == scalar.to_dict()

    @pytest.mark.parametrize("seed", [1, 3])
    def test_seed_variation_bit_identical(self, seed, scalar_loop):
        factory = _factories()["rrs"]
        block = _run(factory, seed=seed)
        with scalar_loop():
            scalar = _run(factory, seed=seed)
        assert block.to_dict() == scalar.to_dict()


class TestLoopDispatch:
    """The loop and the mitigation hooks it calls follow only from what
    the run itself shows: observability, trace form, and the
    mitigation."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Record which loop each run takes, still running it."""
        calls = []
        scalar = SystemSimulator._run_scalar
        block = system_module.run_block_loop

        def spy_scalar(sim, cores, stop_at=-1):
            calls.append("scalar")
            return scalar(sim, cores, stop_at)

        def spy_block(sim, cores, stop_at=-1):
            calls.append("block")
            return block(sim, cores, stop_at)

        monkeypatch.setattr(SystemSimulator, "_run_scalar", spy_scalar)
        monkeypatch.setattr(system_module, "run_block_loop", spy_block)
        return calls

    def test_observed_run_takes_the_scalar_loop(self, calls):
        _run(NoMitigation, records=200, obs=Observability(tracer=None))
        assert calls == ["scalar"]

    def test_record_iterator_run_takes_the_compiled_loop(self, calls):
        dram = _dram()
        sim = SystemSimulator(SystemConfig(dram=dram, cores=CORES))
        spec = get_workload("hmmer")
        traces = [
            SyntheticTraceGenerator(
                spec.component_for_core(core_id),
                core_id=core_id,
                cores=CORES,
                config=dram,
            ).records(200)
            for core_id in range(CORES)
        ]
        sim.run(traces)
        assert calls == ["block"]

    def test_env_cannot_select_the_oracle_paths(self, calls, monkeypatch):
        """A plain columnar run takes the block loop and runs RRS's
        tracker in C, even with the retired loop and batch selector
        variables set. The names are spelled in pieces so that they
        appear nowhere else in the tree."""
        for name in ("BLOCK_CONTROLLER", "BATCH_MITIGATION"):
            monkeypatch.setenv("REPRO_" + name, "0")
        _run(NoMitigation, records=200)
        assert calls == ["block"]
        handed = []
        hot_row_tracker = RandomizedRowSwap.hot_row_tracker

        def spy(self, bank_key):
            handed.append(bank_key)
            return hot_row_tracker(self, bank_key)

        monkeypatch.setattr(RandomizedRowSwap, "hot_row_tracker", spy)
        _run(_factories()["rrs"], records=200)
        assert calls == ["block", "block"]
        assert handed

    @pytest.mark.parametrize("name", ["rrs_declined", "trr", "para", "blockhammer"])
    def test_per_activation_hook(self, name, monkeypatch):
        """A mitigation that hands over no tracker (or whose
        ``hot_row_tracker`` returns None on the instance) sees every
        activation of the compiled loop through ``on_activation``."""
        if name == "rrs_declined":
            mitigation = _factories()["rrs"]()
            mitigation.hot_row_tracker = lambda bank_key: None
        else:
            mitigation = _factories()[name]()
        seen = []
        on_activation = type(mitigation).on_activation

        def spy(self, bank_key, row, physical_row, now_ns):
            seen.append(row)
            return on_activation(self, bank_key, row, physical_row, now_ns)

        monkeypatch.setattr(type(mitigation), "on_activation", spy)
        metrics = _run(lambda: mitigation, records=300)
        assert len(seen) == metrics.activations > 0

    def test_columnar_run_takes_the_compiled_loop(self, calls):
        _run(_factories()["rrs"], records=200)
        assert calls == ["block"]
        assert block_kernel.load() is not None

    def test_compiled_loop_hands_rrs_only_its_swaps(self, monkeypatch):
        """RRS's tracker runs inside the compiled loop: Python sees one
        on_hot_row call per swap and, per bank, only the first
        activation (which creates the bank's state, as the scalar loop
        does, and hands its tracker to C), while a CAT-tracker RRS
        keeps the per-activation hand-off."""
        calls = {"on_activation": [], "on_hot_row": []}
        for name in calls:
            original = getattr(RandomizedRowSwap, name)

            def counted(self, bank_key, *args, _name=name, _original=original):
                calls[_name].append(bank_key)
                return _original(self, bank_key, *args)

            monkeypatch.setattr(RandomizedRowSwap, name, counted)
        metrics = run_workload(
            get_workload("hmmer"),
            RandomizedRowSwap(
                RRSConfig.for_threshold(4800, DRAMConfig()).scaled(256),
                DRAMConfig().scaled(256),
            ),
            scale=256,
            records_per_core=3_000,
            cores=CORES,
        )
        assert metrics.swaps > 0
        first = calls["on_activation"]
        assert first and len(set(first)) == len(first)
        assert len(calls["on_hot_row"]) == metrics.swaps
        cat = RandomizedRowSwap(
            dataclasses.replace(
                RRSConfig.for_threshold(4800, DRAMConfig()).scaled(SCALE),
                tracker_backend="cat",
            ),
            _dram(),
        )
        assert cat.hot_row_tracker((0, 0, 0)) is None

    def test_compiled_loop_hands_graphene_only_its_refreshes(
        self, monkeypatch, scalar_loop
    ):
        """Graphene's tracker runs inside the compiled loop too: Python
        sees each bank's first activation and one on_hot_row call per
        refresh. A threshold of 4 makes hmmer refresh; the scalar loop
        agrees."""
        calls = {"on_activation": [], "on_hot_row": []}
        for name in calls:
            original = getattr(Graphene, name)

            def counted(self, bank_key, *args, _name=name, _original=original):
                calls[_name].append(bank_key)
                return _original(self, bank_key, *args)

            monkeypatch.setattr(Graphene, name, counted)
        dram = _dram(256)

        def run():
            graphene = Graphene(
                t_rh=16,
                mitigation_threshold=4,
                window_activations=dram.acts_per_refresh_window,
                rows_per_bank=dram.rows_per_bank,
            )
            metrics = run_workload(
                get_workload("hmmer"),
                graphene,
                scale=256,
                records_per_core=3_000,
                cores=CORES,
            )
            return metrics.to_dict(), graphene.snapshot_state()

        compiled = run()
        first = calls["on_activation"]
        assert first and len(set(first)) == len(first)
        assert calls["on_hot_row"]
        assert compiled[1][0] >= len(calls["on_hot_row"])  # refreshes issued
        with scalar_loop():
            assert run() == compiled

    def test_sanitized_run_takes_the_scalar_loop(self, calls, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        _run(NoMitigation, records=200)
        assert calls == ["scalar"]

    def test_faulted_run_takes_the_scalar_loop(self, calls):
        _run(NoMitigation, records=200, with_faults=True)
        assert calls == ["scalar"]

    def test_unavailable_loop_falls_back_to_scalar(self, calls, monkeypatch):
        """A host that cannot build the compiled loop runs the scalar
        oracle, with bit-identical results. No env variable is
        involved: the loader itself reports the loop unavailable."""
        factory = _factories()["rrs"]
        compiled = _run(factory)
        assert calls == ["block"]
        monkeypatch.setattr(block_kernel, "load", lambda: None)
        fallback = _run(factory)
        assert calls == ["block", "scalar"]
        assert fallback.to_dict() == compiled.to_dict()
