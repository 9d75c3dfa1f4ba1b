"""Oracle-pair registry and static drift detection (rules ORA001-ORA003).

Every batched kernel in this repo is justified by a scalar *oracle* it
must stay bit-identical to: ``on_activation_batch`` replays through
``on_activation``, block decode matches ``records_reference``,
``ArrayMisraGries`` matches ``MisraGriesTracker``, the vectorized Monte
Carlo matches its scalar reference. The equivalence suites prove each
pair equal *today*; nothing stopped an edit to one side from silently
invalidating that proof tomorrow. This pass does.

Pair discovery
--------------
* **Declared**: a marker comment on the ``def``/``class`` line (or in
  the comment block directly above it; a definition may carry several
  markers, one per pair)::

      # repro-oracle: mitigation-activation -- oracle
      def on_activation(self, ...):

      # repro-oracle: mitigation-activation -- kernel
      def on_activation_batch(self, ...):

* **Auto-discovered** naming conventions, within one class or module
  scope (skipped when a marker already claims the definition):
  ``f`` ↔ ``f_batch``, ``f_reference`` ↔ ``f``, and
  ``observe`` ↔ ``observe_block``.

Fingerprints and the manifest
-----------------------------
Each side's AST is normalized (docstrings stripped, no line/column
attributes) and hashed, so comments, blank lines, and moves never
drift — only semantic edits do. ``oracle_manifest.json`` (committed
next to this module, same workflow as ``salt_manifest.json``) records
both fingerprints plus the hash of every test file under ``tests/``
that references either side by name.

Drift verdicts
--------------
* one side changed, counterpart AND tests untouched → **ORA002**
  (error): the equivalence evidence no longer covers the code;
* anything else out of sync with the manifest (both sides changed,
  pair added/removed, tests-accompanied change) → **ORA003** (error):
  re-bless with ``python -m repro check --flow --update-oracles`` once
  the equivalence suites pass;
* a pair missing one side, or with no referencing test file at all →
  **ORA001** (error).
"""

from __future__ import annotations

import ast
import copy
import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.check.callgraph import ProjectGraph
from repro.check.findings import Finding, sort_findings

ORACLE_MANIFEST_NAME = "oracle_manifest.json"

_MARKER_RE = re.compile(
    r"#\s*repro-oracle:\s*(?P<id>[A-Za-z0-9_.\-]+)\s*--\s*(?P<role>oracle|kernel)"
)

# (kernel suffix convention, oracle name for a given kernel name)
_CONVENTIONS = (
    ("batch", lambda name: name[: -len("_batch")] if name.endswith("_batch") else None),
    ("reference", lambda name: name + "_reference"),
    ("block", lambda name: "observe" if name == "observe_block" else None),
)


def default_oracle_manifest_path() -> Path:
    """The committed manifest, shipped next to this module."""
    return Path(__file__).with_name(ORACLE_MANIFEST_NAME)


@dataclass(frozen=True)
class OracleSide:
    """One side (oracle or kernel) of a pair."""

    qualname: str
    path: str
    line: int
    fingerprint: str


@dataclass
class OraclePair:
    """A discovered scalar-oracle/batched-kernel pair."""

    pair_id: str
    oracle: Optional[OracleSide]
    kernel: Optional[OracleSide]
    tests: Dict[str, str]  # repo-relative test path -> sha256
    declared: bool = False


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------
def _strip_docstrings(node: ast.AST) -> None:
    for child in ast.walk(node):
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Module)
        ):
            body = child.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                body.pop(0)
                if not body:
                    body.append(ast.Pass())


def fingerprint_node(node: ast.AST) -> str:
    """Location-independent, docstring-independent AST hash."""
    clone = copy.deepcopy(node)
    _strip_docstrings(clone)
    dump = ast.dump(clone, annotate_fields=False, include_attributes=False)
    return hashlib.sha256(dump.encode()).hexdigest()


# ----------------------------------------------------------------------
# Discovery
# ----------------------------------------------------------------------
def _short(qualname: str) -> str:
    return qualname[len("repro."):] if qualname.startswith("repro.") else qualname


def _marker_lines_for(node: ast.AST, source_lines: List[str]) -> List[int]:
    """Source lines where a marker may claim this definition: its
    ``def``/``class`` line and the comment block directly above it (or
    above its decorators), so one definition can carry several markers
    — a scalar oracle with more than one kernel."""
    lines = [node.lineno]
    decorators = getattr(node, "decorator_list", [])
    above = min(d.lineno for d in decorators) if decorators else node.lineno
    above -= 1
    while 1 <= above and source_lines[above - 1].lstrip().startswith("#"):
        lines.append(above)
        above -= 1
    return lines


def discover_pairs(graph: ProjectGraph) -> Dict[str, OraclePair]:
    """All declared + convention-discovered pairs in the project."""
    markers: Dict[str, Dict[str, OracleSide]] = {}
    claimed: Dict[str, str] = {}  # qualname -> pair id

    definitions = list(graph.functions.values()) + list(graph.classes.values())
    sides = {
        info.qualname: OracleSide(
            qualname=info.qualname,
            path=info.path,
            line=info.node.lineno,
            fingerprint=fingerprint_node(info.node),
        )
        for info in definitions
    }

    # Pass 1: explicit markers.
    for info in definitions:
        source_lines = graph.source_lines(info.module)
        for lineno in _marker_lines_for(info.node, source_lines):
            match = _MARKER_RE.search(source_lines[lineno - 1])
            if match is None:
                continue
            table = markers.setdefault(match.group("id"), {})
            table[match.group("role")] = sides[info.qualname]
            claimed[info.qualname] = match.group("id")

    pairs: Dict[str, OraclePair] = {}
    for pair_id, table in markers.items():
        pairs[pair_id] = OraclePair(
            pair_id=pair_id,
            oracle=table.get("oracle"),
            kernel=table.get("kernel"),
            tests={},
            declared=True,
        )

    # Pass 2: naming conventions, scoped to one class (or one module for
    # free functions), skipping marker-claimed definitions.
    by_scope: Dict[Tuple[str, Optional[str]], Dict[str, str]] = {}
    for info in graph.functions.values():
        scope = (info.module, info.class_name)
        by_scope.setdefault(scope, {})[info.name] = info.qualname

    for scope, names in by_scope.items():
        for name, qualname in names.items():
            if qualname in claimed:
                continue
            oracle_qual = None
            if name.endswith("_batch") and name[: -len("_batch")] in names:
                oracle_qual = names[name[: -len("_batch")]]
            elif name + "_reference" in names:
                oracle_qual = names[name + "_reference"]
            elif name == "observe_block" and "observe" in names:
                oracle_qual = names["observe"]
            if oracle_qual is None or oracle_qual in claimed:
                continue
            pair_id = _short(qualname)
            pairs[pair_id] = OraclePair(
                pair_id=pair_id,
                oracle=sides[oracle_qual],
                kernel=sides[qualname],
                tests={},
            )

    _attach_tests(graph.root, pairs)
    return pairs


def _attach_tests(root: Path, pairs: Dict[str, OraclePair]) -> None:
    """Hash every tests/ file that names either side of a pair."""
    tests_root = Path(root) / "tests"
    if not tests_root.is_dir():
        return
    test_files = sorted(tests_root.rglob("test_*.py"))
    contents = {
        path.relative_to(root).as_posix(): path.read_text()
        for path in test_files
    }
    digests = {
        name: hashlib.sha256(text.encode()).hexdigest()
        for name, text in contents.items()
    }
    for pair in pairs.values():
        needles = set()
        for side in (pair.oracle, pair.kernel):
            if side is not None:
                needles.add(side.qualname.rsplit(".", 1)[1])
        for name, text in contents.items():
            if any(
                re.search(rf"\b{re.escape(needle)}\b", text)
                for needle in needles
            ):
                pair.tests[name] = digests[name]


# ----------------------------------------------------------------------
# Manifest I/O
# ----------------------------------------------------------------------
def _side_dict(side: Optional[OracleSide]) -> Optional[Dict]:
    if side is None:
        return None
    return {
        "qualname": side.qualname,
        "path": side.path,
        "fingerprint": side.fingerprint,
    }


def compute_oracle_manifest(graph: ProjectGraph) -> Dict:
    pairs = discover_pairs(graph)
    return {
        "pairs": {
            pair_id: {
                "declared": pair.declared,
                "oracle": _side_dict(pair.oracle),
                "kernel": _side_dict(pair.kernel),
                "tests": dict(sorted(pair.tests.items())),
            }
            for pair_id, pair in sorted(pairs.items())
        }
    }


def write_oracle_manifest(
    graph: ProjectGraph, manifest_path: Optional[Path] = None
) -> Path:
    """Bless the current tree's oracle pairs into the manifest."""
    path = Path(manifest_path) if manifest_path else default_oracle_manifest_path()
    manifest = compute_oracle_manifest(graph)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


# ----------------------------------------------------------------------
# Drift detection
# ----------------------------------------------------------------------
def _finding(rule: str, path: str, line: int, message: str) -> Finding:
    return Finding(rule=rule, path=path, line=line, message=message)


def _pair_anchor(pair: OraclePair, recorded: Optional[Dict] = None) -> Tuple[str, int]:
    for side in (pair.oracle, pair.kernel):
        if side is not None:
            return side.path, side.line
    if recorded:
        for key in ("oracle", "kernel"):
            side = recorded.get(key)
            if side:
                return side.get("path", "<oracle-manifest>"), 1
    return "<oracle-manifest>", 1


_REBLESS = (
    "re-bless with `python -m repro check --flow --update-oracles` once "
    "the equivalence suites pass"
)


def check_oracles(
    graph: ProjectGraph, manifest_path: Optional[Path] = None
) -> List[Finding]:
    """Findings for the oracle-pair pillar (empty list == clean)."""
    path = Path(manifest_path) if manifest_path else default_oracle_manifest_path()
    current = discover_pairs(graph)
    findings: List[Finding] = []

    # Structural problems are reported from the live tree regardless of
    # the manifest state.
    for pair in current.values():
        anchor_path, anchor_line = _pair_anchor(pair)
        if pair.oracle is None or pair.kernel is None:
            missing = "oracle" if pair.oracle is None else "kernel"
            findings.append(
                _finding(
                    "ORA001",
                    anchor_path,
                    anchor_line,
                    f"pair {pair.pair_id!r} declares no {missing} side; add "
                    f"a `# repro-oracle: {pair.pair_id} -- {missing}` marker "
                    "to its counterpart",
                )
            )
            continue
        if not pair.tests:
            findings.append(
                _finding(
                    "ORA001",
                    anchor_path,
                    anchor_line,
                    f"pair {pair.pair_id!r} has no equivalence test: no "
                    "file under tests/ references "
                    f"{pair.oracle.qualname.rsplit('.', 1)[1]!r} or "
                    f"{pair.kernel.qualname.rsplit('.', 1)[1]!r}",
                )
            )

    if not path.is_file():
        findings.append(
            _finding(
                "ORA003",
                str(path),
                1,
                f"oracle manifest missing; {_REBLESS}",
            )
        )
        return sort_findings(findings)
    try:
        recorded_pairs: Dict[str, Dict] = json.loads(path.read_text()).get(
            "pairs", {}
        )
    except ValueError:
        findings.append(
            _finding(
                "ORA003",
                str(path),
                1,
                f"oracle manifest is not valid JSON; {_REBLESS}",
            )
        )
        return sort_findings(findings)

    for pair_id, recorded in sorted(recorded_pairs.items()):
        pair = current.get(pair_id)
        if pair is None or pair.oracle is None or pair.kernel is None:
            anchor = recorded.get("oracle") or recorded.get("kernel") or {}
            findings.append(
                _finding(
                    "ORA003",
                    anchor.get("path", str(path)),
                    1,
                    f"recorded pair {pair_id!r} no longer exists in the "
                    f"tree; {_REBLESS}",
                )
            )
            continue
        recorded_oracle = (recorded.get("oracle") or {}).get("fingerprint")
        recorded_kernel = (recorded.get("kernel") or {}).get("fingerprint")
        oracle_changed = pair.oracle.fingerprint != recorded_oracle
        kernel_changed = pair.kernel.fingerprint != recorded_kernel
        tests_changed = pair.tests != recorded.get("tests", {})
        if not (oracle_changed or kernel_changed):
            continue  # test-file churn alone never drifts a pair
        if oracle_changed != kernel_changed and not tests_changed:
            moved = pair.oracle if oracle_changed else pair.kernel
            twin = pair.kernel if oracle_changed else pair.oracle
            side_name = "scalar oracle" if oracle_changed else "batched kernel"
            twin_name = "batched kernel" if oracle_changed else "scalar oracle"
            findings.append(
                _finding(
                    "ORA002",
                    moved.path,
                    moved.line,
                    f"{side_name} {moved.qualname} changed but its "
                    f"{twin_name} {twin.qualname} and the equivalence "
                    f"tests ({', '.join(sorted(pair.tests)) or 'none'}) "
                    "did not; bit-identical replay is no longer "
                    f"evidenced — update the counterpart/tests, then "
                    f"{_REBLESS}",
                )
            )
        else:
            anchor_path, anchor_line = _pair_anchor(pair)
            findings.append(
                _finding(
                    "ORA003",
                    anchor_path,
                    anchor_line,
                    f"pair {pair_id!r} drifted from the manifest; "
                    f"{_REBLESS}",
                )
            )

    for pair_id, pair in sorted(current.items()):
        if pair_id in recorded_pairs or pair.oracle is None or pair.kernel is None:
            continue
        anchor_path, anchor_line = _pair_anchor(pair)
        findings.append(
            _finding(
                "ORA003",
                anchor_path,
                anchor_line,
                f"new oracle pair {pair_id!r} is not in the manifest; "
                f"{_REBLESS}",
            )
        )
    return sort_findings(findings)
