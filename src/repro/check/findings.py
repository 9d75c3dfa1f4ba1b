"""Finding records, the rule table, severity tiers, and the reporters.

Every check in :mod:`repro.check` — linter rules, the flow passes,
sanitizer smoke results — and the ledger drift detector in
:mod:`repro.obs.regress` report through the same
:class:`Finding` shape so the CLI can merge them into one exit code and
one ``--format json`` stream.

Severity tiers
--------------
* ``error``  — breaks a reproducibility or equivalence invariant; the
  CLI exit code reflects *only* this tier.
* ``warn``   — suspicious but not provably wrong (e.g. a ledger metric
  outside its warn horizon); printed, never fails the build.
* ``advice`` — context, not a defect (e.g. too little ledger history
  to judge drift); printed, never fails the build.

Suppression syntax (linter and flow passes)
-------------------------------------------
A finding is suppressed by a trailing comment on the flagged line or
the line directly above it::

    acts = sum(counts.values())  # repro-check: RRS005 -- integer counts, order-free

The justification after ``--`` is mandatory: a bare suppression is
itself reported as RRS008.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, NamedTuple, Sequence, Set, Tuple

SEVERITY_ERROR = "error"
SEVERITY_WARN = "warn"
SEVERITY_ADVICE = "advice"

SEVERITIES = (SEVERITY_ERROR, SEVERITY_WARN, SEVERITY_ADVICE)


class RuleInfo(NamedTuple):
    """One row of the rule table (tuple-compatible with older callers)."""

    title: str
    guards: str
    severity: str = SEVERITY_ERROR


# ----------------------------------------------------------------------
# Rule table
# ----------------------------------------------------------------------
RULES: Dict[str, RuleInfo] = {
    "RRS001": RuleInfo(
        "raw-entropy-source",
        "`random` or `numpy.random` used directly inside a simulation "
        "package; all stochastic draws must flow through "
        "repro.utils.rng.DeterministicRng so results are a pure function "
        "of the SweepPoint seed",
    ),
    "RRS002": RuleInfo(
        "wall-clock-dependence",
        "`time`/`datetime` wall-clock read inside a simulation package; "
        "simulated time must come from the simulator, never the host",
    ),
    "RRS003": RuleInfo(
        "os-entropy-source",
        "`os.urandom`, `secrets`, or `uuid.uuid1/uuid4` inside a "
        "simulation package; host entropy breaks run reproducibility",
    ),
    "RRS004": RuleInfo(
        "unordered-set-iteration",
        "iteration over a set literal/comprehension/`set(...)`; set "
        "iteration order is salted per process — sort before iterating",
    ),
    "RRS005": RuleInfo(
        "unordered-float-accumulation",
        "`sum()` over a mapping view in aggregation code; float "
        "accumulation order must be explicit (sort keys or use "
        "math.fsum) so metrics never depend on insertion order",
    ),
    "RRS006": RuleInfo(
        "mutable-default-argument",
        "mutable default argument (list/dict/set/Counter/...); shared "
        "across calls, it leaks state between runs",
    ),
    "RRS007": RuleInfo(
        "hot-path-slots-omission",
        "hot-path class without __slots__ (or dataclass(slots=True)); "
        "per-instance dicts cost measurable time and memory at sweep "
        "scale",
    ),
    "RRS008": RuleInfo(
        "bare-suppression",
        "suppression comment without a `-- justification`; every "
        "suppressed finding must say why it is safe",
    ),
    "RRS009": RuleInfo(
        "bare-print-in-sim-package",
        "`print()` inside src/repro/{mem,dram,core,mitigations,track}; "
        "simulation packages must stay silent — report through returned "
        "metrics or the repro.obs tracer, not stdout",
    ),
    "RRS010": RuleInfo(
        "unseeded-generator",
        "unseeded `default_rng()` / `default_rng(None)`, a direct "
        "`Generator(PCG64())` construction over an unseeded bit "
        "generator, or a legacy module-level `np.random.*` call inside "
        "a simulation package; every `Generator` must be seeded through "
        "repro.utils.rng.DeterministicRng so the stream is a pure "
        "function of the SweepPoint seed",
    ),
    # Oracle-pair registry (repro.check.oracle).
    "ORA001": RuleInfo(
        "oracle-pair-incomplete",
        "a declared scalar-oracle/batched-kernel pair is missing one "
        "side or has no equivalence test under tests/ exercising it",
    ),
    # Snapshot-coverage pass (repro.check.statecheck): every class with
    # run-evolving state must join the repro.state Snapshotable protocol.
    "STA001": RuleInfo(
        "mutable-state-not-snapshotable",
        "a class in a simulation package mutates instance state outside "
        "its constructor but implements neither snapshot_state nor "
        "restore_state (directly or via a project base); checkpoint "
        "resumes silently skip its state — join the protocol or "
        "suppress on the class line with a justification",
    ),
    "STA002": RuleInfo(
        "one-sided-snapshot-protocol",
        "a class implements exactly one of snapshot_state/restore_state; "
        "state that can be captured but not restored (or vice versa) "
        "defeats the checkpoint round-trip oracle",
    ),
    # Cross-run regression detector (repro.obs.regress) over the
    # sweep-fleet run ledger.
    "REG001": RuleInfo(
        "cross-run-metric-drift",
        "a sweep metric (throughput, IPC, or a mitigation counter) "
        "drifted far outside its ledger history for the same "
        "(workload, mitigation, scale) group — robust |z| beyond the "
        "error horizon (median/MAD statistics, so single historical "
        "outliers cannot mask or fake a drift)",
    ),
    "REG002": RuleInfo(
        "cross-run-metric-wobble",
        "a sweep metric sits outside the warn horizon of its ledger "
        "history but inside the error horizon; suspicious, not "
        "build-failing",
        SEVERITY_WARN,
    ),
    "REG003": RuleInfo(
        "insufficient-ledger-history",
        "a (workload, mitigation, scale) group has fewer historical "
        "ledger runs than the detector needs for a robust baseline; "
        "drift cannot be judged yet",
        SEVERITY_ADVICE,
    ),
    # The sanitizer smoke reuses the Finding shape under this id.
    "SAN001": RuleInfo(
        "protocol-violation",
        "the DDR4 protocol sanitizer observed a violation during the "
        "smoke simulation",
    ),
}


def rule_severity(rule: str) -> str:
    """Severity tier for a rule id (unknown ids are errors)."""
    info = RULES.get(rule)
    return info.severity if info is not None else SEVERITY_ERROR


@dataclass(frozen=True)
class Finding:
    """One reported problem, anchored to a file location."""

    rule: str
    path: str
    line: int
    message: str
    snippet: str = ""
    severity: str = ""

    def __post_init__(self) -> None:
        if not self.severity:
            object.__setattr__(self, "severity", rule_severity(self.rule))

    def __str__(self) -> str:
        title = RULES.get(self.rule, ("", ""))[0]
        label = f"{self.rule}({title})" if title else self.rule
        return (
            f"{self.path}:{self.line}: [{self.severity}] {label}: "
            f"{self.message}"
        )


def sort_findings(findings: Iterable[Finding]) -> List[Finding]:
    """The one canonical order: ``(path, line, rule)``.

    Stable across runs and machines, so text and JSON reports diff
    cleanly between commits.
    """
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule))


def severity_counts(findings: Iterable[Finding]) -> Dict[str, int]:
    """Finding counts per severity tier (all tiers always present)."""
    counts = {tier: 0 for tier in SEVERITIES}
    for finding in findings:
        counts[finding.severity] = counts.get(finding.severity, 0) + 1
    return counts


def error_count(findings: Iterable[Finding]) -> int:
    """How many findings sit in the error tier (drives the exit code)."""
    return sum(1 for f in findings if f.severity == SEVERITY_ERROR)


# ----------------------------------------------------------------------
# Suppression comments (shared by the linter and the flow passes)
# ----------------------------------------------------------------------
_SUPPRESS_RE = re.compile(
    r"#\s*repro-check:\s*"
    r"(?P<ids>[A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)"
    r"\s*(?:--\s*(?P<why>\S.*\S|\S))?"
)


def parse_suppressions(source: str) -> Dict[int, Tuple[Set[str], bool]]:
    """Per-line suppressions: line -> (rule ids, has justification)."""
    out: Dict[int, Tuple[Set[str], bool]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        ids = {part.strip() for part in match.group("ids").split(",")}
        out[lineno] = (ids, match.group("why") is not None)
    return out


def apply_suppressions(
    findings: Sequence[Finding], source: str, path: str
) -> List[Finding]:
    """Drop justified-suppressed findings; report bare suppressions.

    A suppression matches when its comment sits on the flagged line or
    the line directly above. A match without a ``-- why`` justification
    does not suppress and is itself reported once as RRS008.
    """
    suppressions = parse_suppressions(source)
    lines = source.splitlines()
    kept: List[Finding] = []
    used_bare: Set[int] = set()
    for finding in findings:
        suppressed = False
        for lineno in (finding.line, finding.line - 1):
            entry = suppressions.get(lineno)
            if entry is None or finding.rule not in entry[0]:
                continue
            if entry[1]:
                suppressed = True
            else:
                used_bare.add(lineno)
            break
        if not suppressed:
            kept.append(finding)
    for lineno in sorted(used_bare):
        kept.append(
            Finding(
                rule="RRS008",
                path=path,
                line=lineno,
                message=(
                    "suppression without a justification; append "
                    "`-- <why this is safe>`"
                ),
                snippet=lines[lineno - 1].strip() if lineno <= len(lines) else "",
            )
        )
    return kept


class Reporter:
    """Renders findings as human text or machine JSON."""

    def __init__(self, fmt: str = "text") -> None:
        if fmt not in ("text", "json"):
            raise ValueError(f"unknown report format {fmt!r}")
        self.fmt = fmt

    def render(self, findings: Iterable[Finding]) -> str:
        ordered = sort_findings(findings)
        counts = severity_counts(ordered)
        if self.fmt == "json":
            return json.dumps(
                {
                    "findings": [asdict(finding) for finding in ordered],
                    "count": len(ordered),
                    "counts": counts,
                },
                indent=2,
                sort_keys=True,
            )
        if not ordered:
            return "ok: no findings"
        lines = [str(finding) for finding in ordered]
        lines.append(
            f"{len(ordered)} finding(s): "
            + ", ".join(f"{counts[tier]} {tier}" for tier in SEVERITIES)
        )
        return "\n".join(lines)
