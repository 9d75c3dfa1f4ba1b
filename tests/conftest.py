"""Shared fixtures: small geometries so tests run in milliseconds."""

from __future__ import annotations

import contextlib

import pytest

from repro.dram.config import DRAMConfig
from repro.mem.system import SystemSimulator


@pytest.fixture(autouse=True)
def _isolated_ledger(tmp_path_factory, monkeypatch):
    """Point the run ledger at a per-test temp file.

    SweepRunner appends fleet telemetry to $REPRO_LEDGER by default;
    tests must never write into the developer's real ledger history.
    """
    monkeypatch.setenv(
        "REPRO_LEDGER", str(tmp_path_factory.mktemp("ledger") / "ledger.jsonl")
    )


@pytest.fixture
def small_dram() -> DRAMConfig:
    """A small but structurally faithful DRAM: 1 channel, 4 banks,
    1024 rows of 1KB; timing identical to the paper's DDR4-3200."""
    return DRAMConfig(
        channels=1,
        ranks_per_channel=1,
        banks_per_rank=4,
        rows_per_bank=1024,
        row_size_bytes=1024,
    )


@pytest.fixture
def paper_dram() -> DRAMConfig:
    """The paper's full Table 2 configuration."""
    return DRAMConfig()


@pytest.fixture
def scalar_loop(monkeypatch):
    """Context manager: runs started inside it take ``_run_scalar``.

    Patches ``SystemSimulator._block_loop_eligible`` to refuse the block
    kernel, so equivalence tests can drive the scalar oracle and the
    production loop side by side in one test.
    """

    @contextlib.contextmanager
    def forced():
        with monkeypatch.context() as patch:
            patch.setattr(
                SystemSimulator, "_block_loop_eligible", lambda self, cores: False
            )
            yield

    return forced
