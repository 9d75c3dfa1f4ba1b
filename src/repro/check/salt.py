"""Cache-salt drift detector.

:mod:`repro.exec.cache` replays cached results for any run whose
``SweepPoint`` hashes to a known key — keys that include ``CACHE_SALT``
but not the simulator's source code. The README's policy ("bump the
salt on any semantics-affecting change") was an honor system; this
module enforces it: a committed manifest records the SHA-256 of every
simulation-relevant source file alongside the salt it was blessed
under. When any of those files changes without either bumping
``CACHE_SALT`` or refreshing the manifest (``repro check --salt
--update-salt``, the "this change is I/O-only" escape hatch), the check
fails CI.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.check.findings import Finding
from repro.exec.cache import CACHE_SALT

# Source files whose behaviour feeds a cached result, as globs relative
# to the repository root. This is the formalization of the informal set
# the CACHE_SALT policy in exec/cache.py describes: DRAM timing and
# geometry, the memory system, mitigations, trackers, attacks, trace
# generation, the RRS core, the deterministic RNG, and the perf harness
# that turns traces into metrics. The compiled block loop's C source
# counts too: it computes the same results as the Python it replaced.
SIM_RELEVANT_GLOBS = (
    "src/repro/dram/*.py",
    "src/repro/mem/*.py",
    "src/repro/mem/*.c",
    "src/repro/mitigations/*.py",
    "src/repro/attacks/*.py",
    "src/repro/track/*.py",
    "src/repro/workloads/*.py",
    "src/repro/core/*.py",
    "src/repro/utils/*.py",
    "src/repro/analysis/perf.py",
)

MANIFEST_NAME = "salt_manifest.json"


def default_manifest_path() -> Path:
    """The committed manifest, shipped next to this module."""
    return Path(__file__).with_name(MANIFEST_NAME)


def find_repo_root(start: Optional[Path] = None) -> Optional[Path]:
    """Nearest ancestor containing ``pyproject.toml``, else None.

    Tries ``start`` (default: cwd) first, then this module's location —
    so the check works from any cwd inside a source checkout.
    """
    candidates = [Path(start) if start is not None else Path.cwd()]
    candidates.append(Path(__file__).resolve())
    for origin in candidates:
        node = origin.resolve()
        for ancestor in (node, *node.parents):
            if (ancestor / "pyproject.toml").is_file():
                return ancestor
    return None


def simulation_relevant_files(root: Path) -> List[Path]:
    """Every source file whose change can invalidate cached results."""
    root = Path(root)
    files: List[Path] = []
    for pattern in SIM_RELEVANT_GLOBS:
        files.extend(root.glob(pattern))
    return sorted(set(files))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def compute_manifest(root: Path, salt: str = CACHE_SALT) -> Dict:
    """Hash the current tree into a manifest dict."""
    root = Path(root)
    return {
        "salt": salt,
        "files": {
            path.relative_to(root).as_posix(): _sha256(path)
            for path in simulation_relevant_files(root)
        },
    }


def write_manifest(
    root: Path,
    manifest_path: Optional[Path] = None,
    salt: str = CACHE_SALT,
) -> Path:
    """Bless the current tree: record hashes + salt to the manifest."""
    path = Path(manifest_path) if manifest_path else default_manifest_path()
    manifest = compute_manifest(root, salt=salt)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


@dataclass
class SaltDrift:
    """Difference between the recorded manifest and the current tree."""

    recorded_salt: str
    current_salt: str
    changed: List[str] = field(default_factory=list)
    added: List[str] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)

    @property
    def files_drifted(self) -> bool:
        return bool(self.changed or self.added or self.removed)

    @property
    def salt_bumped(self) -> bool:
        return self.recorded_salt != self.current_salt

    @property
    def is_clean(self) -> bool:
        """True when no action is required."""
        return not self.files_drifted and not self.salt_bumped


def compare_manifest(recorded: Dict, current: Dict) -> SaltDrift:
    """Diff two manifests into a :class:`SaltDrift`."""
    recorded_files: Dict[str, str] = recorded.get("files", {})
    current_files: Dict[str, str] = current.get("files", {})
    drift = SaltDrift(
        recorded_salt=recorded.get("salt", ""),
        current_salt=current.get("salt", ""),
    )
    for name in sorted(set(recorded_files) | set(current_files)):
        if name not in current_files:
            drift.removed.append(name)
        elif name not in recorded_files:
            drift.added.append(name)
        elif recorded_files[name] != current_files[name]:
            drift.changed.append(name)
    return drift


def check_salt(
    root: Path,
    manifest_path: Optional[Path] = None,
    salt: str = CACHE_SALT,
) -> List[Finding]:
    """Findings for the salt-drift pillar (empty list == clean).

    Fails when simulation-relevant sources changed while the manifest
    still records the *current* salt (stale cache hazard), or when the
    salt was bumped / the manifest is missing and the manifest was not
    regenerated alongside.
    """
    path = Path(manifest_path) if manifest_path else default_manifest_path()
    manifest_display = str(path)
    if not path.is_file():
        return [
            Finding(
                rule="SALT001",
                path=manifest_display,
                line=1,
                message=(
                    "salt manifest missing; run `python -m repro check "
                    "--salt --update-salt` to bless the current tree"
                ),
            )
        ]
    try:
        recorded = json.loads(path.read_text())
    except ValueError:
        return [
            Finding(
                rule="SALT001",
                path=manifest_display,
                line=1,
                message="salt manifest is not valid JSON; regenerate it "
                "with `python -m repro check --salt --update-salt`",
            )
        ]
    drift = compare_manifest(recorded, compute_manifest(root, salt=salt))
    if drift.is_clean:
        return []
    findings: List[Finding] = []
    if drift.files_drifted and not drift.salt_bumped:
        details = ", ".join((drift.changed + drift.added + drift.removed)[:8])
        findings.append(
            Finding(
                rule="SALT001",
                path=manifest_display,
                line=1,
                message=(
                    "simulation-relevant sources changed under salt "
                    f"{drift.current_salt!r} ({details}); cached results "
                    "may be stale — bump CACHE_SALT in "
                    "src/repro/exec/cache.py, or mark the change "
                    "I/O-only by regenerating the manifest with "
                    "`python -m repro check --salt --update-salt`"
                ),
            )
        )
    if drift.salt_bumped:
        findings.append(
            Finding(
                rule="SALT001",
                path=manifest_display,
                line=1,
                message=(
                    f"CACHE_SALT is {drift.current_salt!r} but the "
                    f"manifest was blessed under {drift.recorded_salt!r};"
                    " regenerate it with `python -m repro check --salt "
                    "--update-salt`"
                ),
            )
        )
    return findings
