"""The ``python -m repro check`` entry point.

Runs up to three pillars and folds everything into one exit code:

* ``--rules``  — the determinism linter over the simulation packages
  (or over explicit ``--paths``);
* ``--sanitize`` — a short smoke simulation with the DDR4 protocol
  sanitizer installed, proving the command streams it emits are legal;
* ``--flow``  — the project-graph passes: snapshot coverage (STA...:
  mutable-sim-state classes missing the ``repro.state`` Snapshotable
  protocol) and oracle-pair completeness (ORA001: every
  scalar-oracle/batched-kernel pair has both sides and a test).

With no pillar flag, all three run. ``--format json`` emits a single
machine-readable findings document. The exit code reflects only the
error tier: warn and advice findings are printed but never fail the
build.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional

from repro.check.callgraph import ProjectGraph
from repro.check.findings import Finding, Reporter, error_count
from repro.check.linter import lint_paths, lint_tree
from repro.check.oracle import check_oracles
from repro.check.sanitizer import ProtocolSanitizer, ProtocolViolation
from repro.check.statecheck import check_statecheck


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


def _run_rules(root: Optional[Path], paths: List[str]) -> List[Finding]:
    if paths:
        return lint_paths([Path(p) for p in paths], root=root)
    if root is None:
        return [
            Finding(
                rule="RRS001",
                path="<repo>",
                line=1,
                message="cannot locate the repository root (no "
                "pyproject.toml above cwd); pass --root or --paths",
            )
        ]
    return lint_tree(root)


def _run_sanitize_smoke(verbose: bool, records: int = 8000) -> List[Finding]:
    """A small RRS run with every runtime checker installed.

    ``hmmer`` at epoch scale 1/128 swaps hundreds of rows and crosses a
    refresh-window boundary within ~8k records, so the smoke exercises
    ACT/PRE/CAS streams on every bank, refresh cadence, the swap path,
    RIT lock-bit rollover, and the CAT shadow — any
    :class:`ProtocolViolation` becomes a finding instead of a crash, so
    the CLI can report it.
    """
    from repro.core.config import RRSConfig
    from repro.core.rrs import RandomizedRowSwap
    from repro.dram.config import DRAMConfig
    from repro.mem.cpu import CoreConfig
    from repro.mem.system import SystemConfig, SystemSimulator
    from repro.workloads.suites import get_workload
    from repro.workloads.synthetic import SyntheticTraceGenerator

    scale = 128
    dram = DRAMConfig().scaled(scale)
    config = SystemConfig(dram=dram, core=CoreConfig(), cores=2)
    mitigation = RandomizedRowSwap(
        RRSConfig.for_threshold(4800, DRAMConfig()).scaled(scale),
        dram,
        rit_use_cat=True,
    )
    simulator = SystemSimulator(config, mitigation=mitigation)
    sanitizer = ProtocolSanitizer(dram).install(simulator)
    spec = get_workload("hmmer")
    traces = [
        SyntheticTraceGenerator(spec, core_id=core).records(records)
        for core in range(config.cores)
    ]
    try:
        simulator.run(traces, workload=spec.name)
    except ProtocolViolation as violation:
        return [
            Finding(
                rule=violation.rule,
                path="<sanitizer-smoke>",
                line=1,
                message=str(violation),
            )
        ]
    if verbose:
        print(
            f"sanitizer smoke: {sanitizer.commands_checked} commands, "
            f"{sanitizer.audits} swap audits, 0 violations"
        )
    return []


def _run_flow(root: Optional[Path]) -> List[Finding]:
    if root is None:
        return [
            Finding(
                rule="STA001",
                path="<repo>",
                line=1,
                message="cannot locate the repository root (no "
                "pyproject.toml above cwd); pass --root",
            )
        ]
    graph = ProjectGraph.build(root)
    return check_statecheck(graph) + check_oracles(graph)


def run_check(args) -> int:
    """Execute the selected pillars; returns the process exit code."""
    flow = getattr(args, "flow", False)
    pillars_requested = args.rules or args.sanitize or flow
    run_rules = args.rules or not pillars_requested
    run_sanitize = args.sanitize or not pillars_requested
    run_flow = flow or not pillars_requested

    verbose = args.format == "text"
    root = find_repo_root(Path(args.root) if args.root else None)
    findings: List[Finding] = []
    if run_rules:
        findings.extend(_run_rules(root, args.paths))
    if run_sanitize:
        findings.extend(_run_sanitize_smoke(verbose))
    if run_flow:
        findings.extend(_run_flow(root))

    print(Reporter(args.format).render(findings))
    return 1 if error_count(findings) else 0
