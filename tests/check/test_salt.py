"""Cache-salt drift detector: manifest roundtrip and drift findings."""

from __future__ import annotations

import json
from pathlib import Path

from repro.check.salt import (
    SaltDrift,
    check_salt,
    compare_manifest,
    compute_manifest,
    default_manifest_path,
    find_repo_root,
    simulation_relevant_files,
    write_manifest,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def _fake_tree(tmp_path: Path) -> Path:
    """A miniature repo with two simulation-relevant files."""
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'x'\n")
    dram = tmp_path / "src" / "repro" / "dram"
    dram.mkdir(parents=True)
    (dram / "timing.py").write_text("T_RC = 45\n")
    (dram / "bank.py").write_text("class Bank: pass\n")
    return tmp_path


class TestManifest:
    def test_roundtrip_is_clean(self, tmp_path):
        root = _fake_tree(tmp_path)
        manifest_path = tmp_path / "manifest.json"
        write_manifest(root, manifest_path, salt="v1")
        assert check_salt(root, manifest_path, salt="v1") == []

    def test_relevant_files_discovered(self, tmp_path):
        root = _fake_tree(tmp_path)
        names = [p.name for p in simulation_relevant_files(root)]
        assert names == ["bank.py", "timing.py"]

    def test_manifest_records_relative_posix_paths(self, tmp_path):
        root = _fake_tree(tmp_path)
        manifest = compute_manifest(root, salt="v1")
        assert sorted(manifest["files"]) == [
            "src/repro/dram/bank.py",
            "src/repro/dram/timing.py",
        ]
        assert manifest["salt"] == "v1"


class TestDriftDetection:
    def test_changed_file_without_bump_fails(self, tmp_path):
        root = _fake_tree(tmp_path)
        manifest_path = tmp_path / "manifest.json"
        write_manifest(root, manifest_path, salt="v1")
        (root / "src" / "repro" / "dram" / "timing.py").write_text("T_RC = 46\n")
        findings = check_salt(root, manifest_path, salt="v1")
        assert [f.rule for f in findings] == ["SALT001"]
        assert "timing.py" in findings[0].message
        assert "bump CACHE_SALT" in findings[0].message

    def test_edited_c_loop_source_fails(self, tmp_path):
        """The compiled block loop's C source is simulation code too."""
        root = _fake_tree(tmp_path)
        mem = root / "src" / "repro" / "mem"
        mem.mkdir()
        (mem / "block_loop.c").write_text("int rk_run(void) { return 0; }\n")
        manifest_path = tmp_path / "manifest.json"
        write_manifest(root, manifest_path, salt="v1")
        assert "src/repro/mem/block_loop.c" in json.loads(
            manifest_path.read_text()
        )["files"]
        (mem / "block_loop.c").write_text("int rk_run(void) { return 1; }\n")
        findings = check_salt(root, manifest_path, salt="v1")
        assert [f.rule for f in findings] == ["SALT001"]
        assert "block_loop.c" in findings[0].message

    def test_added_and_removed_files_fail(self, tmp_path):
        root = _fake_tree(tmp_path)
        manifest_path = tmp_path / "manifest.json"
        write_manifest(root, manifest_path, salt="v1")
        (root / "src" / "repro" / "dram" / "bank.py").unlink()
        (root / "src" / "repro" / "dram" / "refresh.py").write_text("x = 1\n")
        findings = check_salt(root, manifest_path, salt="v1")
        assert [f.rule for f in findings] == ["SALT001"]

    def test_salt_bump_without_regen_fails(self, tmp_path):
        root = _fake_tree(tmp_path)
        manifest_path = tmp_path / "manifest.json"
        write_manifest(root, manifest_path, salt="v1")
        findings = check_salt(root, manifest_path, salt="v2")
        assert [f.rule for f in findings] == ["SALT001"]
        assert "'v2'" in findings[0].message and "'v1'" in findings[0].message

    def test_update_blesses_change(self, tmp_path):
        root = _fake_tree(tmp_path)
        manifest_path = tmp_path / "manifest.json"
        write_manifest(root, manifest_path, salt="v1")
        (root / "src" / "repro" / "dram" / "timing.py").write_text("T_RC = 46\n")
        write_manifest(root, manifest_path, salt="v2")  # the escape hatch
        assert check_salt(root, manifest_path, salt="v2") == []

    def test_missing_manifest_fails(self, tmp_path):
        root = _fake_tree(tmp_path)
        findings = check_salt(root, tmp_path / "absent.json")
        assert [f.rule for f in findings] == ["SALT001"]
        assert "missing" in findings[0].message

    def test_corrupt_manifest_fails(self, tmp_path):
        root = _fake_tree(tmp_path)
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text("{not json")
        findings = check_salt(root, manifest_path)
        assert [f.rule for f in findings] == ["SALT001"]
        assert "not valid JSON" in findings[0].message


class TestSaltDriftModel:
    def test_compare_classifies_changes(self):
        recorded = {"salt": "v1", "files": {"a.py": "1", "b.py": "2"}}
        current = {"salt": "v1", "files": {"a.py": "9", "c.py": "3"}}
        drift = compare_manifest(recorded, current)
        assert drift.changed == ["a.py"]
        assert drift.added == ["c.py"]
        assert drift.removed == ["b.py"]
        assert drift.files_drifted and not drift.salt_bumped

    def test_clean_drift(self):
        drift = SaltDrift(recorded_salt="v1", current_salt="v1")
        assert drift.is_clean


class TestCommittedManifest:
    """The manifest shipped in the repo must match the working tree —
    this is the same guarantee CI enforces via `repro check --salt`."""

    def test_repo_root_discovery(self):
        assert find_repo_root(REPO_ROOT) == REPO_ROOT

    def test_committed_manifest_is_current(self):
        path = default_manifest_path()
        assert path.is_file(), (
            "salt manifest missing; run "
            "`python -m repro check --salt --update-salt`"
        )
        assert check_salt(REPO_ROOT) == [], (
            "simulation-relevant sources drifted from the committed "
            "manifest; bump CACHE_SALT or re-bless with "
            "`python -m repro check --salt --update-salt`"
        )

    def test_committed_manifest_is_sorted_json(self):
        text = default_manifest_path().read_text()
        payload = json.loads(text)
        assert list(payload) == sorted(payload)
        assert payload["files"] == dict(sorted(payload["files"].items()))


class TestCliRebless:
    """The `--update-salt` re-bless flow through `python -m repro check`."""

    def _patched(self, monkeypatch, tmp_path):
        import repro.check.salt as salt_module

        manifest = tmp_path / "manifest.json"
        monkeypatch.setattr(
            salt_module, "default_manifest_path", lambda: manifest
        )
        return manifest

    def test_update_salt_round_trip(self, capsys, monkeypatch, tmp_path):
        from repro.cli import main

        root = _fake_tree(tmp_path)
        manifest = self._patched(monkeypatch, tmp_path)
        code = main(["check", "--salt", "--update-salt", "--root", str(root)])
        out = capsys.readouterr().out
        assert code == 0
        assert manifest.is_file()
        assert "salt manifest refreshed" in out
        assert "ok: no findings" in out
        # A second run without --update-salt stays clean.
        assert main(["check", "--salt", "--root", str(root)]) == 0

    def test_drift_detected_after_edit(self, capsys, monkeypatch, tmp_path):
        from repro.cli import main

        root = _fake_tree(tmp_path)
        self._patched(monkeypatch, tmp_path)
        assert main(["check", "--salt", "--update-salt", "--root", str(root)]) == 0
        capsys.readouterr()
        (root / "src" / "repro" / "dram" / "timing.py").write_text("T_RC = 46\n")
        code = main(["check", "--salt", "--root", str(root)])
        out = capsys.readouterr().out
        assert code == 1
        assert "SALT001" in out and "timing.py" in out

    def test_rebless_after_edit_restores_clean(self, capsys, monkeypatch, tmp_path):
        from repro.cli import main

        root = _fake_tree(tmp_path)
        self._patched(monkeypatch, tmp_path)
        assert main(["check", "--salt", "--update-salt", "--root", str(root)]) == 0
        (root / "src" / "repro" / "dram" / "timing.py").write_text("T_RC = 46\n")
        assert main(["check", "--salt", "--update-salt", "--root", str(root)]) == 0
