"""The package's source digest: what moves it, and the keys it moves."""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

import repro
from repro.exec import MitigationSpec, SweepPoint, canonical_key
from repro.exec import cache as cache_module
from repro.exec.cache import digest_sources, source_digest
from repro.state.checkpoint import run_fingerprint

PACKAGE = Path(repro.__file__).resolve().parent


@pytest.fixture
def package_copy(tmp_path):
    """A copy of the ``repro`` package's sources under ``tmp_path``."""
    copy = tmp_path / "repro"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    return copy


def _point():
    return SweepPoint(
        workload="stream",
        mitigation=MitigationSpec.rrs(t_rh=4800, scale=32),
        scale=32,
        records_per_core=1000,
    )


def test_source_digest_hashes_the_installed_package():
    assert source_digest() == digest_sources(PACKAGE)
    assert len(source_digest()) == 64


def test_copy_digests_like_the_package(package_copy):
    assert digest_sources(package_copy) == digest_sources(PACKAGE)


@pytest.mark.parametrize(
    "relative", ["exec/specs.py", "state/serial.py", "mem/block_loop.c"]
)
def test_editing_a_source_changes_the_digest(package_copy, relative):
    before = digest_sources(package_copy)
    path = package_copy / relative
    path.write_bytes(path.read_bytes() + b"\n")
    assert digest_sources(package_copy) != before


def test_adding_or_removing_a_module_changes_the_digest(package_copy):
    before = digest_sources(package_copy)
    extra = package_copy / "exec" / "extra.py"
    extra.write_text("")
    assert digest_sources(package_copy) != before
    extra.unlink()
    (package_copy / "utils" / "rng.py").unlink()
    assert digest_sources(package_copy) != before


def test_non_code_and_pycache_files_leave_the_digest(package_copy):
    before = digest_sources(package_copy)
    (package_copy / "exec" / "notes.txt").write_text("not code\n")
    (package_copy / "mem" / "block_loop.so").write_bytes(b"\x7fELF")
    pycache = package_copy / "exec" / "__pycache__"
    pycache.mkdir()
    (pycache / "specs.cpython-312.pyc").write_bytes(b"\0" * 16)
    (pycache / "stray.py").write_text("x = 1\n")
    assert digest_sources(package_copy) == before


def test_digest_change_moves_canonical_key_and_fingerprint(monkeypatch):
    description = {"x": 1}
    key, fingerprint = canonical_key(description), run_fingerprint(description)
    monkeypatch.setattr(cache_module, "source_digest", lambda: "0" * 64)
    assert canonical_key(description) != key
    assert run_fingerprint(description) != fingerprint


def test_editing_specs_moves_cache_key_and_checkpoint_fingerprint(
    monkeypatch, package_copy
):
    """``exec/specs.py`` derives every cached RRS point's config."""
    point = _point()
    keys = []
    for edit in (b"", b"\n# edited\n"):
        specs = package_copy / "exec" / "specs.py"
        specs.write_bytes(specs.read_bytes() + edit)
        digest = digest_sources(package_copy)
        monkeypatch.setattr(cache_module, "source_digest", lambda: digest)
        keys.append((point.cache_key(), point.checkpoint_fingerprint()))
    (key_before, fingerprint_before), (key_after, fingerprint_after) = keys
    assert key_after != key_before
    assert fingerprint_after != fingerprint_before
