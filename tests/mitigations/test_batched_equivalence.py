"""Compiled loop vs the per-activation scalar loop, per mitigation.

The compiled loop runs a bank's activations in blocks: it either steps
the mitigation's Misra-Gries tracker in C and calls ``on_hot_row``
(RRS), or hands every activation to ``on_activation`` (PARA, and an
RRS whose ``hot_row_tracker`` returns None on the instance). Either way a full simulation must produce the
same ``SimMetrics`` dict — hence the same cache keys — as one forced
onto the scalar loop (the ``scalar_loop`` fixture), at other seeds and
with the protocol sanitizer installed.
"""

import pytest

from repro.analysis.perf import run_workload
from repro.core.config import RRSConfig
from repro.core.rrs import RandomizedRowSwap
from repro.dram.config import DRAMConfig
from repro.mitigations.para import PARA
from repro.workloads.suites import get_workload

SCALE = 32
RECORDS = 1_000
CORES = 2


def _declined(rrs):
    rrs.hot_row_tracker = lambda bank_key: None
    return rrs


def _factories(scale=SCALE):
    dram = DRAMConfig().scaled(scale)
    rrs_config = RRSConfig.for_threshold(4800, DRAMConfig()).scaled(scale)
    return {
        "rrs": lambda: RandomizedRowSwap(rrs_config, dram),
        "rrs_declined": lambda: _declined(RandomizedRowSwap(rrs_config, dram)),
        "para": lambda: PARA(rows_per_bank=dram.rows_per_bank),
    }


def _run(factory, seed=0):
    return run_workload(
        get_workload("hmmer"),
        factory(),
        scale=SCALE,
        records_per_core=RECORDS,
        cores=CORES,
        seed=seed,
    )


class TestBatchedScalarEquivalence:
    @pytest.mark.parametrize("name", ["rrs_declined", "para"])
    def test_seed_variation_bit_identical(self, name, scalar_loop):
        factory = _factories()[name]
        for seed in (1, 3):
            block = _run(factory, seed=seed)
            with scalar_loop():
                scalar = _run(factory, seed=seed)
            assert block.to_dict() == scalar.to_dict()

    @pytest.mark.parametrize("name", ["rrs_declined", "para"])
    def test_sanitized_run_bit_identical(self, name, scalar_loop, monkeypatch):
        """REPRO_SANITIZE=1 installs the DDR4 protocol auditor, which
        sends the run to the scalar loop; results must not move from
        the forced scalar run, nor from the unsanitized compiled run."""
        factory = _factories()[name]
        plain = _run(factory)
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        sanitized = _run(factory)
        with scalar_loop():
            scalar = _run(factory)
        assert sanitized.to_dict() == scalar.to_dict()
        assert plain.to_dict() == sanitized.to_dict()
