"""Oracle-pair registry and completeness check (rule ORA001).

Every batched kernel in this repo is justified by a scalar *oracle* it
must stay bit-identical to: ``on_activation_batch`` replays through
``on_activation``, ``observe_run`` through ``observe``, block decode
matches ``records_reference``, ``ArrayMisraGries`` matches
``MisraGriesTracker``, the vectorized Monte Carlo matches its scalar
reference. The equivalence suites prove each
pair equal on every tier-1 run; this pass makes sure every pair *has*
such a suite.

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
  ``observe`` ↔ ``observe_block`` (the CAT tracker's pair;
  ``ArrayMisraGries.observe`` is claimed by ``tracker-observe-run``, so
  its ``observe_block``, a plain loop over ``observe``, forms none).

Verdict
-------
A pair missing one side, or with no file under ``tests/`` naming
either side, is **ORA001** (error).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.check.callgraph import ProjectGraph
from repro.check.findings import Finding, sort_findings

_MARKER_RE = re.compile(
    r"#\s*repro-oracle:\s*(?P<id>[A-Za-z0-9_.\-]+)\s*--\s*(?P<role>oracle|kernel)"
)


@dataclass(frozen=True)
class OracleSide:
    """One side (oracle or kernel) of a pair."""

    qualname: str
    path: str
    line: int


@dataclass
class OraclePair:
    """A discovered scalar-oracle/batched-kernel pair."""

    pair_id: str
    oracle: Optional[OracleSide]
    kernel: Optional[OracleSide]
    tests: List[str] = field(default_factory=list)  # repo-relative paths
    declared: bool = False


# ----------------------------------------------------------------------
# Discovery
# ----------------------------------------------------------------------
def _short(qualname: str) -> str:
    return qualname[len("repro."):] if qualname.startswith("repro.") else qualname


def _marker_lines_for(node: ast.AST, source_lines: Tuple[str, ...]) -> List[int]:
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
            qualname=info.qualname, path=info.path, line=info.node.lineno
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
            )

    _attach_tests(graph.root, pairs)
    return pairs


def _attach_tests(root: Path, pairs: Dict[str, OraclePair]) -> None:
    """List every tests/ file that names either side of a pair."""
    tests_root = Path(root) / "tests"
    if not tests_root.is_dir():
        return
    contents = {
        path.relative_to(root).as_posix(): path.read_text()
        for path in sorted(tests_root.rglob("test_*.py"))
    }
    for pair in pairs.values():
        needles = {
            side.qualname.rsplit(".", 1)[1]
            for side in (pair.oracle, pair.kernel)
            if side is not None
        }
        pair.tests = [
            name
            for name, text in contents.items()
            if any(
                re.search(rf"\b{re.escape(needle)}\b", text)
                for needle in needles
            )
        ]


# ----------------------------------------------------------------------
# Completeness
# ----------------------------------------------------------------------
def check_oracles(graph: ProjectGraph) -> List[Finding]:
    """ORA001 findings for the live tree (empty list == clean)."""
    findings: List[Finding] = []
    for pair in discover_pairs(graph).values():
        anchor = pair.oracle or pair.kernel
        assert anchor is not None  # discovery never yields a sideless pair
        if pair.oracle is None or pair.kernel is None:
            missing = "oracle" if pair.oracle is None else "kernel"
            message = (
                f"pair {pair.pair_id!r} declares no {missing} side; add "
                f"a `# repro-oracle: {pair.pair_id} -- {missing}` marker "
                "to its counterpart"
            )
        elif not pair.tests:
            message = (
                f"pair {pair.pair_id!r} has no equivalence test: no "
                "file under tests/ references "
                f"{pair.oracle.qualname.rsplit('.', 1)[1]!r} or "
                f"{pair.kernel.qualname.rsplit('.', 1)[1]!r}"
            )
        else:
            continue
        findings.append(
            Finding(rule="ORA001", path=anchor.path, line=anchor.line, message=message)
        )
    return sort_findings(findings)
