"""Flow passes: severity tiers, call graph, oracle-pair discovery and completeness."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.check.callgraph import ProjectGraph
from repro.check.findings import (
    Finding,
    RULES,
    Reporter,
    SEVERITY_ADVICE,
    SEVERITY_ERROR,
    SEVERITY_WARN,
    error_count,
    rule_severity,
    severity_counts,
    sort_findings,
)
from repro.check.oracle import check_oracles, discover_pairs

REPO_ROOT = Path(__file__).resolve().parents[2]


def _tree(tmp_path: Path, modules: dict, tests: dict = None) -> Path:
    """A miniature repo: {relpath-under-src/repro: source} (+ tests/)."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'x'\n")
    for rel, source in modules.items():
        path = tmp_path / "src" / "repro" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    for rel, source in (tests or {}).items():
        path = tmp_path / "tests" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return tmp_path


@pytest.fixture(scope="module")
def repo_graph():
    return ProjectGraph.build(REPO_ROOT)


# ----------------------------------------------------------------------
# Severity tiers and ordering (repro.check.findings)
# ----------------------------------------------------------------------
class TestSeverities:
    def test_every_rule_has_a_known_tier(self):
        for rule in RULES:
            assert rule_severity(rule) in (
                SEVERITY_ERROR, SEVERITY_WARN, SEVERITY_ADVICE
            )

    def test_tier_assignments(self):
        assert rule_severity("RRS001") == SEVERITY_ERROR
        assert rule_severity("STA001") == SEVERITY_ERROR
        assert rule_severity("REG002") == SEVERITY_WARN
        assert rule_severity("ORA001") == SEVERITY_ERROR
        assert rule_severity("REG003") == SEVERITY_ADVICE
        assert rule_severity("XXX999") == SEVERITY_ERROR  # unknown → strict

    def test_finding_autofills_severity(self):
        finding = Finding(rule="REG003", path="a.py", line=3, message="m")
        assert finding.severity == SEVERITY_ADVICE
        assert "[advice]" in str(finding)

    def test_sort_is_path_line_rule(self):
        findings = [
            Finding(rule="RRS005", path="b.py", line=1, message="m"),
            Finding(rule="RRS001", path="a.py", line=9, message="m"),
            Finding(rule="ORA001", path="a.py", line=2, message="m"),
            Finding(rule="RRS004", path="a.py", line=2, message="m"),
        ]
        ordered = sort_findings(findings)
        assert [(f.path, f.line, f.rule) for f in ordered] == [
            ("a.py", 2, "ORA001"),
            ("a.py", 2, "RRS004"),
            ("a.py", 9, "RRS001"),
            ("b.py", 1, "RRS005"),
        ]

    def test_counts_and_error_count(self):
        findings = [
            Finding(rule="RRS001", path="a.py", line=1, message="m"),
            Finding(rule="REG002", path="a.py", line=2, message="m"),
            Finding(rule="REG003", path="a.py", line=3, message="m"),
            Finding(rule="REG003", path="a.py", line=4, message="m"),
        ]
        assert severity_counts(findings) == {"error": 1, "warn": 1, "advice": 2}
        assert error_count(findings) == 1

    def test_reporter_summarises_tiers(self):
        findings = [
            Finding(rule="REG002", path="a.py", line=2, message="m"),
            Finding(rule="REG003", path="a.py", line=3, message="m"),
        ]
        text = Reporter("text").render(findings)
        assert "2 finding(s): 0 error, 1 warn, 1 advice" in text
        payload = json.loads(Reporter("json").render(findings))
        assert payload["counts"] == {"error": 0, "warn": 1, "advice": 2 - 1}
        assert payload["findings"][0]["severity"] == "warn"


# ----------------------------------------------------------------------
# Oracle-pair registry and completeness (ORA001)
# ----------------------------------------------------------------------
_KERNELS = (
    "import numpy as np\n"
    "\n"
    "# repro-oracle: demo-pair -- oracle\n"
    "def transform(x):\n"
    "    return x * 2 + 1\n"
    "\n"
    "# repro-oracle: demo-pair -- kernel\n"
    "def transform_vec(xs):\n"
    "    return [x * 2 + 1 for x in xs]\n"
    "\n"
    "def decode(x):\n"
    "    return x + 1\n"
    "\n"
    "def decode_batch(xs):\n"
    "    return [x + 1 for x in xs]\n"
)

_KERNEL_TESTS = {
    "test_kernels.py": (
        "from repro.kernels import transform, transform_vec\n"
        "from repro.kernels import decode, decode_batch\n"
        "def test_equivalence():\n"
        "    assert transform_vec([3]) == [transform(3)]\n"
        "    assert decode_batch([3]) == [decode(3)]\n"
    ),
}


def _oracle_tree(tmp_path):
    root = _tree(tmp_path, {"kernels.py": _KERNELS}, _KERNEL_TESTS)
    return root, ProjectGraph.build(root)


class TestOracleDiscovery:
    def test_marker_and_convention_pairs_found(self, tmp_path):
        _, graph = _oracle_tree(tmp_path)
        pairs = discover_pairs(graph)
        assert set(pairs) == {"demo-pair", "kernels.decode_batch"}
        demo = pairs["demo-pair"]
        assert demo.declared
        assert demo.oracle.qualname == "repro.kernels.transform"
        assert demo.kernel.qualname == "repro.kernels.transform_vec"
        assert "tests/test_kernels.py" in demo.tests
        conv = pairs["kernels.decode_batch"]
        assert not conv.declared
        assert conv.oracle.qualname == "repro.kernels.decode"

    def test_one_oracle_may_carry_several_markers(self, tmp_path):
        source = (
            "# repro-oracle: pair-a -- oracle\n"
            "# repro-oracle: pair-b -- oracle\n"
            "def step(x):\n"
            "    return x + 1\n"
            "\n"
            "# repro-oracle: pair-a -- kernel\n"
            "def step_many(xs):\n"
            "    return [x + 1 for x in xs]\n"
            "\n"
            "# a comment block above a marker still reaches the def\n"
            "# repro-oracle: pair-b -- kernel\n"
            "def step_run(x, k):\n"
            "    return x + k\n"
        )
        tests = {"test_steps.py": "from repro.steps import step, step_many, step_run\n"}
        graph = ProjectGraph.build(_tree(tmp_path, {"steps.py": source}, tests))
        pairs = discover_pairs(graph)
        assert set(pairs) == {"pair-a", "pair-b"}
        for pair_id, kernel in (("pair-a", "step_many"), ("pair-b", "step_run")):
            assert pairs[pair_id].oracle.qualname == "repro.steps.step"
            assert pairs[pair_id].kernel.qualname == f"repro.steps.{kernel}"


class TestOracleDrift:
    """ORA001 over the live tree: no manifest is read or written."""

    def test_complete_tree_without_manifest_is_clean(self, tmp_path):
        root, graph = _oracle_tree(tmp_path)
        assert not list(root.rglob("*.json"))
        assert check_oracles(graph) == []

    def test_one_sided_marker_is_incomplete(self, tmp_path):
        root = _tree(tmp_path, {
            "lonely.py": (
                "# repro-oracle: lonely -- oracle\n"
                "def slow(x):\n"
                "    return x\n"
            ),
        })
        findings = check_oracles(ProjectGraph.build(root))
        assert [f.rule for f in findings] == ["ORA001"]
        assert "declares no kernel side" in findings[0].message
        assert findings[0].severity == SEVERITY_ERROR

    def test_untested_pair_is_incomplete(self, tmp_path):
        root = _tree(tmp_path, {"kernels.py": _KERNELS})  # no tests/
        findings = check_oracles(ProjectGraph.build(root))
        assert {f.rule for f in findings} == {"ORA001"}
        assert len(findings) == 2  # both pairs lack equivalence tests

    def test_repo_pairs_are_complete(self, repo_graph):
        assert check_oracles(repo_graph) == []

    def test_repo_pairs_cover_the_kernel_suite(self, repo_graph):
        pairs = discover_pairs(repo_graph)
        assert "system-loop" in pairs
        assert "tracker-misra-gries" in pairs
        assert "dram.address.AddressMapper.decode_batch" in pairs
        assert "analysis.buckets.BucketsAndBalls.success_probability" in pairs
        for pair in pairs.values():
            assert pair.oracle is not None and pair.kernel is not None
            assert pair.tests, f"{pair.pair_id} has no equivalence test"
