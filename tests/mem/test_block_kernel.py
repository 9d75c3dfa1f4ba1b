"""The compiled block loop's build, cache and fallback paths.

The loop's results are pinned against the scalar oracle in
``test_block_equivalence.py`` and ``tests/state/test_roundtrip.py``;
this module covers what those cannot see: that the library is really
built where a compiler exists, how the build is cached, that a host
without one falls back to the scalar loop, and that the C tracker's
full-table misses match.
"""

import dataclasses
import shutil
import warnings

import pytest

from repro.analysis.perf import run_workload
from repro.core.config import RRSConfig
from repro.core.rrs import RandomizedRowSwap
from repro.dram.config import DRAMConfig
from repro.mem import block_kernel
from repro.state.checkpoint import CheckpointSession
from repro.workloads.suites import get_workload

# A short run that crosses two refresh windows, swaps thousands of
# times and crosses block ends.
SCALE = 256
RECORDS = 6_000
CORES = 4
CUTS = (1, 999, 7_000, 15_000)


def _compiler() -> bool:
    return bool(shutil.which("cc") or shutil.which("gcc"))


def _tiny_tracker_rrs():
    """RRS with a 16-entry hot-row tracker."""
    config = RRSConfig.for_threshold(4800, DRAMConfig()).scaled(SCALE)
    return RandomizedRowSwap(
        dataclasses.replace(config, tracker_entries=16), DRAMConfig().scaled(SCALE)
    )


def _cut_run():
    """SimMetrics plus the serialized state at every cut."""
    texts = {}
    session = CheckpointSession(
        cuts=CUTS,
        sink=lambda ckpt: texts.setdefault(ckpt.serviced, ckpt.dumps()),
    )
    metrics = run_workload(
        get_workload("hmmer"),
        _tiny_tracker_rrs(),
        scale=SCALE,
        records_per_core=RECORDS,
        cores=CORES,
        checkpoints=session,
    )
    return metrics, texts


def test_compiler_on_path_means_the_compiled_loop_loads():
    """Without this, a broken build would silently leave every test
    (and every sweep) on the scalar fallback."""
    if not _compiler():
        pytest.skip("no C compiler on PATH")
    assert block_kernel.load() is not None


def test_full_table_tracker_misses_match_the_scalar_loop(scalar_loop):
    """A 16-entry hot-row tracker misses on a full table thousands of
    times per window (spills and lowest-slot evictions), and swaps
    thousands of times; every cut lands inside a window. Results and
    each cut's full state, tracker slots and spill counters included,
    match the scalar oracle."""
    with scalar_loop():
        expected = _cut_run()
    metrics, texts = expected
    assert metrics.windows == 2 and metrics.swaps > 1_000
    assert sorted(texts) == list(CUTS)
    assert _cut_run() == expected


def test_build_is_cached_by_source_and_flags(tmp_path, monkeypatch):
    if not _compiler():
        pytest.skip("no C compiler on PATH")
    compiler = shutil.which("cc") or shutil.which("gcc")
    first = block_kernel._compiled(compiler, tmp_path, "loop.so")
    assert first.is_file()
    assert [p.name for p in tmp_path.iterdir()] == ["loop.so"]

    import subprocess

    def no_compile(*args, **kwargs):
        raise AssertionError("a cached build must not recompile")

    monkeypatch.setattr(subprocess, "run", no_compile)
    assert block_kernel._compiled(compiler, tmp_path, "loop.so") == first


def test_unwritable_cache_falls_back_to_the_temp_directory(tmp_path, monkeypatch):
    if not _compiler():
        pytest.skip("no C compiler on PATH")
    package = tmp_path / "package"
    package.mkdir()
    source = package / "block_loop.c"
    source.write_bytes(block_kernel.SOURCE.read_bytes())
    (package / "__pycache__").write_text("a file where the cache dir would go")
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(block_kernel, "SOURCE", source)
    monkeypatch.setattr(block_kernel.tempfile, "tempdir", str(scratch))
    monkeypatch.setattr(block_kernel, "_library", block_kernel._UNRESOLVED)
    assert block_kernel.load() is not None
    built = list((scratch / "repro-kernel").iterdir())
    assert [p.suffix for p in built] == [".so"]


def test_failed_build_falls_back_with_a_warning(tmp_path, monkeypatch):
    broken = tmp_path / "block_loop.c"
    broken.write_text("this is not C\n")
    monkeypatch.setattr(block_kernel, "SOURCE", broken)
    monkeypatch.setattr(block_kernel, "_library", block_kernel._UNRESOLVED)
    with pytest.warns(RuntimeWarning, match="scalar loop"):
        assert block_kernel.load() is None
    # Resolved once: later calls neither rebuild nor warn again.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert block_kernel.load() is None
    assert not any(p.suffix == ".so" for p in tmp_path.rglob("*"))


def test_no_compiler_falls_back_with_a_warning(monkeypatch):
    monkeypatch.setattr(block_kernel.shutil, "which", lambda name: None)
    monkeypatch.setattr(block_kernel, "_library", block_kernel._UNRESOLVED)
    with pytest.warns(RuntimeWarning, match="no C compiler"):
        assert block_kernel.load() is None
