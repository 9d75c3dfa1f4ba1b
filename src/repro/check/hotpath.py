"""Hot-path allocation lint (advisory rules HOT001-HOT003).

The simulation hot path is whatever the batched activation kernels can
reach: ``on_activation_batch`` implementations, the array-state
trackers' block observers, and the batched decode kernels. Those
functions run once per *batch*, but anything they do inside a loop runs
per activation — at Table-4 sweep scale that is hundreds of millions of
iterations, so a stray list-comprehension or repeated ``self.a.b``
chain is real wall-clock.

This pass walks the call graph from those roots and flags, inside loop
bodies only:

* **HOT001** — container/ndarray allocation (``list()``/``dict()``/
  ``set()``/literal displays with elements/``np.zeros``-family calls)
  constructed fresh every iteration;
* **HOT002** — ``xs.append(...)`` loops, the classic scalar fallback
  that a vectorized construction replaces;
* **HOT003** — the same multi-part attribute chain read three or more
  times inside one loop body; hoist it into a local.

Everything here is **advice** tier: it never fails the build, and the
committed baseline (``flow_baseline.json``, next to this module)
records the advisories that predate the pass so only *new* ones
surface in reports. Re-bless with
``python -m repro check --flow --update-baseline``.
"""

from __future__ import annotations

import ast
import json
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set

from repro.check.callgraph import FunctionInfo, ProjectGraph
from repro.check.findings import Finding, apply_suppressions, sort_findings

BASELINE_NAME = "flow_baseline.json"

# Unqualified names whose project definitions seed the hot-path walk.
HOT_ROOT_NAMES = (
    "on_activation_batch",
    "observe_block",
    "decode_batch",
    "encode_batch",
    "run_batch",
)

_ALLOC_CALLS = {"list", "dict", "set", "bytearray"}
_NP_ALLOC_ATTRS = {"zeros", "ones", "empty", "full", "arange", "array", "concatenate"}


def default_baseline_path() -> Path:
    """The committed advisory baseline, shipped next to this module."""
    return Path(__file__).with_name(BASELINE_NAME)


def baseline_key(finding: Finding, qualname: str) -> str:
    """Line-number-free identity: stable across unrelated edits."""
    return f"{finding.rule}:{finding.path}:{qualname}"


# ----------------------------------------------------------------------
# Per-function inspection
# ----------------------------------------------------------------------
class _LoopInspector:
    """Flags allocation patterns inside the loops of one function."""

    def __init__(self, info: FunctionInfo) -> None:
        self.info = info
        self.findings: List[Finding] = []
        # finding -> owning qualname, for baseline keying
        self.owners: Dict[int, str] = {}

    def run(self) -> List[Finding]:
        for node in ast.walk(self.info.node):
            if isinstance(node, (ast.For, ast.While)):
                self._inspect_loop(node)
        return self.findings

    def _add(self, rule: str, node: ast.AST, message: str) -> None:
        finding = Finding(
            rule=rule,
            path=self.info.path,
            line=getattr(node, "lineno", self.info.node.lineno),
            message=f"{message} (in {self.info.qualname})",
        )
        self.findings.append(finding)
        self.owners[id(finding)] = self.info.qualname

    def _inspect_loop(self, loop: ast.AST) -> None:
        body: List[ast.stmt] = list(loop.body) + list(
            getattr(loop, "orelse", [])
        )
        chains: Counter = Counter()
        chain_nodes: Dict[str, ast.AST] = {}
        stack: List[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.For, ast.While)):
                # Nested loops are inspected on their own visit; pruning
                # their subtree keeps each node flagged exactly once.
                continue
            stack.extend(ast.iter_child_nodes(node))
            if isinstance(node, ast.Call):
                self._check_alloc_call(node)
                self._check_append(node)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
                self._add(
                    "HOT001",
                    node,
                    "comprehension allocated every iteration of a "
                    "hot loop; build once outside or vectorize",
                )
            elif isinstance(node, (ast.List, ast.Dict, ast.Set)) and (
                getattr(node, "elts", None) or getattr(node, "keys", None)
            ):
                self._add(
                    "HOT001",
                    node,
                    "container literal allocated every iteration of "
                    "a hot loop; hoist or vectorize",
                )
            elif isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Attribute
            ):
                chain = _attr_chain(node)
                if chain is not None:
                    chains[chain] += 1
                    chain_nodes.setdefault(chain, node)
        for chain, count in sorted(chains.items()):
            if count >= 3:
                self._add(
                    "HOT003",
                    chain_nodes[chain],
                    f"attribute chain `{chain}` resolved {count} times "
                    "inside one hot loop; hoist it into a local",
                )

    def _check_alloc_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in _ALLOC_CALLS:
            self._add(
                "HOT001",
                node,
                f"`{func.id}()` allocated every iteration of a hot "
                "loop; reuse a preallocated container",
            )
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in _NP_ALLOC_ATTRS
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")
        ):
            self._add(
                "HOT001",
                node,
                f"`{func.value.id}.{func.attr}(...)` allocated every "
                "iteration of a hot loop; preallocate outside and fill",
            )

    def _check_append(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "append"
            and isinstance(func.value, ast.Name)
        ):
            self._add(
                "HOT002",
                node,
                f"`{func.value.id}.append(...)` in a hot loop; a "
                "vectorized numpy construction avoids the per-element "
                "interpreter round trip",
            )


def _attr_chain(node: ast.Attribute) -> Optional[str]:
    parts: List[str] = []
    current: ast.AST = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def hot_roots(graph: ProjectGraph) -> Set[str]:
    roots: Set[str] = set()
    for name in HOT_ROOT_NAMES:
        roots.update(info.qualname for info in graph.functions_named(name))
    return roots


def check_hotpath(
    graph: ProjectGraph, baseline_path: Optional[Path] = None
) -> List[Finding]:
    """New (non-baselined) advisories on the batched activation path."""
    raw, owners = _collect(graph)
    known = load_baseline(baseline_path)
    kept = [
        finding
        for finding in raw
        if baseline_key(finding, owners[id(finding)]) not in known
    ]
    return sort_findings(_unsuppressed(graph, kept))


def _unsuppressed(graph: ProjectGraph, findings: List[Finding]) -> List[Finding]:
    """Honor the shared `# repro-check: <RULE> -- why` suppression
    contract (repro.check.findings) — the linter and entropy passes
    already do; hot-path advisories are no different. Bare suppressions
    come back as RRS008 findings."""
    by_path: Dict[str, List[Finding]] = {}
    for finding in findings:
        by_path.setdefault(finding.path, []).append(finding)
    final: List[Finding] = []
    for path, group in by_path.items():
        try:
            source = (graph.root / path).read_text()
        except OSError:
            final.extend(group)
            continue
        final.extend(apply_suppressions(group, source, path))
    return final


def _collect(graph: ProjectGraph):
    findings: List[Finding] = []
    owners: Dict[int, str] = {}
    for qualname in sorted(graph.reachable_from(hot_roots(graph))):
        inspector = _LoopInspector(graph.functions[qualname])
        findings.extend(inspector.run())
        owners.update(inspector.owners)
    return findings, owners


def load_baseline(baseline_path: Optional[Path] = None) -> Set[str]:
    path = Path(baseline_path) if baseline_path else default_baseline_path()
    if not path.is_file():
        return set()
    try:
        payload = json.loads(path.read_text())
    except ValueError:
        return set()
    return set(payload.get("advisories", []))


def write_baseline(
    graph: ProjectGraph, baseline_path: Optional[Path] = None
) -> Path:
    """Bless every current unsuppressed advisory so only future ones
    surface (a justified suppression already answers its advisory)."""
    path = Path(baseline_path) if baseline_path else default_baseline_path()
    raw, owners = _collect(graph)
    keys = sorted(
        {
            baseline_key(f, owners[id(f)])
            for f in _unsuppressed(graph, raw)
            if id(f) in owners
        }
    )
    path.write_text(
        json.dumps({"advisories": keys}, indent=2, sort_keys=True) + "\n"
    )
    return path
