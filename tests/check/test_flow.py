"""Flow engine: call graph, entropy provenance, oracle drift, hot path."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.check.callgraph import ProjectGraph
from repro.check.entropy import check_entropy
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
from repro.check.hotpath import check_hotpath, write_baseline
from repro.check.oracle import (
    check_oracles,
    discover_pairs,
    write_oracle_manifest,
)

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
        assert rule_severity("FLW001") == SEVERITY_ERROR
        assert rule_severity("FLW003") == SEVERITY_WARN
        assert rule_severity("ORA002") == SEVERITY_ERROR
        assert rule_severity("HOT001") == SEVERITY_ADVICE
        assert rule_severity("XXX999") == SEVERITY_ERROR  # unknown → strict

    def test_finding_autofills_severity(self):
        finding = Finding(rule="HOT002", path="a.py", line=3, message="m")
        assert finding.severity == SEVERITY_ADVICE
        assert "[advice]" in str(finding)

    def test_sort_is_path_line_rule(self):
        findings = [
            Finding(rule="RRS005", path="b.py", line=1, message="m"),
            Finding(rule="RRS001", path="a.py", line=9, message="m"),
            Finding(rule="FLW001", path="a.py", line=2, message="m"),
            Finding(rule="RRS004", path="a.py", line=2, message="m"),
        ]
        ordered = sort_findings(findings)
        assert [(f.path, f.line, f.rule) for f in ordered] == [
            ("a.py", 2, "FLW001"),
            ("a.py", 2, "RRS004"),
            ("a.py", 9, "RRS001"),
            ("b.py", 1, "RRS005"),
        ]

    def test_counts_and_error_count(self):
        findings = [
            Finding(rule="RRS001", path="a.py", line=1, message="m"),
            Finding(rule="FLW003", path="a.py", line=2, message="m"),
            Finding(rule="HOT001", path="a.py", line=3, message="m"),
            Finding(rule="HOT002", path="a.py", line=4, message="m"),
        ]
        assert severity_counts(findings) == {"error": 1, "warn": 1, "advice": 2}
        assert error_count(findings) == 1

    def test_reporter_summarises_tiers(self):
        findings = [
            Finding(rule="FLW003", path="a.py", line=2, message="m"),
            Finding(rule="HOT001", path="a.py", line=3, message="m"),
        ]
        text = Reporter("text").render(findings)
        assert "2 finding(s): 0 error, 1 warn, 1 advice" in text
        payload = json.loads(Reporter("json").render(findings))
        assert payload["counts"] == {"error": 0, "warn": 1, "advice": 2 - 1}
        assert payload["findings"][0]["severity"] == "warn"


# ----------------------------------------------------------------------
# Call graph substrate
# ----------------------------------------------------------------------
class TestCallGraph:
    def test_cross_module_resolution_and_reachability(self, tmp_path):
        root = _tree(tmp_path, {
            "alpha.py": (
                "from repro.beta import helper\n"
                "def entry():\n"
                "    return helper()\n"
            ),
            "beta.py": (
                "def helper():\n"
                "    return leaf()\n"
                "def leaf():\n"
                "    return 1\n"
                "def unreachable():\n"
                "    return 2\n"
            ),
        })
        graph = ProjectGraph.build(root)
        assert graph.calls["repro.alpha.entry"] == {"repro.beta.helper"}
        assert graph.calls["repro.beta.helper"] == {"repro.beta.leaf"}
        reachable = graph.reachable_from(["repro.alpha.entry"])
        assert "repro.beta.leaf" in reachable
        assert "repro.beta.unreachable" not in reachable

    def test_self_method_resolution(self, tmp_path):
        root = _tree(tmp_path, {
            "gamma.py": (
                "class Engine:\n"
                "    def outer(self):\n"
                "        return self.inner()\n"
                "    def inner(self):\n"
                "        return 0\n"
            ),
        })
        graph = ProjectGraph.build(root)
        assert graph.calls["repro.gamma.Engine.outer"] == {
            "repro.gamma.Engine.inner"
        }

    def test_functions_named(self, tmp_path):
        root = _tree(tmp_path, {
            "a.py": "class A:\n    def on_activation_batch(self):\n        pass\n",
            "b.py": "class B:\n    def on_activation_batch(self):\n        pass\n",
        })
        graph = ProjectGraph.build(root)
        names = {f.qualname for f in graph.functions_named("on_activation_batch")}
        assert names == {
            "repro.a.A.on_activation_batch",
            "repro.b.B.on_activation_batch",
        }


# ----------------------------------------------------------------------
# Entropy-flow pass (FLW001-003)
# ----------------------------------------------------------------------
def _entropy(tmp_path, modules):
    return check_entropy(ProjectGraph.build(_tree(tmp_path, modules)))


class TestEntropyFlow:
    def test_unseeded_default_rng_flagged(self, tmp_path):
        findings = _entropy(tmp_path, {
            "streams.py": (
                "import numpy as np\n"
                "def fresh():\n"
                "    return np.random.default_rng()\n"
            ),
        })
        assert [f.rule for f in findings] == ["FLW001"]
        assert findings[0].line == 3

    def test_generator_over_unseeded_bitgen_flagged(self, tmp_path):
        findings = _entropy(tmp_path, {
            "streams.py": (
                "import numpy as np\n"
                "def fresh():\n"
                "    return np.random.Generator(np.random.PCG64())\n"
            ),
        })
        assert [f.rule for f in findings] == ["FLW001"]

    def test_seeded_chain_is_clean(self, tmp_path):
        findings = _entropy(tmp_path, {
            "streams.py": (
                "import numpy as np\n"
                "def make(seed):\n"
                "    return np.random.default_rng(seed)\n"
                "def consume(seed):\n"
                "    rng = make(seed)\n"
                "    kids = rng.spawn(4)\n"
                "    return kids[0].integers(10)\n"
            ),
        })
        assert findings == []

    def test_interprocedural_set_return_flagged(self, tmp_path):
        # The set of generators is built in one function and iterated in
        # another: only the interprocedural return summary can see it.
        findings = _entropy(tmp_path, {
            "streams.py": (
                "import numpy as np\n"
                "def make_pool(seed):\n"
                "    return {np.random.default_rng(seed),"
                " np.random.default_rng(seed + 1)}\n"
                "def drain(seed):\n"
                "    total = 0\n"
                "    for rng in make_pool(seed):\n"
                "        total += rng.integers(10)\n"
                "    return total\n"
            ),
        })
        assert [f.rule for f in findings] == ["FLW002"]
        assert findings[0].line == 6

    def test_sorted_iteration_not_flagged(self, tmp_path):
        findings = _entropy(tmp_path, {
            "streams.py": (
                "import numpy as np\n"
                "def drain(seed):\n"
                "    rngs = [np.random.default_rng(seed + i) for i in range(4)]\n"
                "    return [r.integers(10) for r in rngs]\n"
            ),
        })
        assert findings == []

    def test_module_level_stream_warns(self, tmp_path):
        findings = _entropy(tmp_path, {
            "shared.py": (
                "import numpy as np\n"
                "SHARED = np.random.default_rng(1234)\n"
            ),
        })
        assert [f.rule for f in findings] == ["FLW003"]
        assert findings[0].severity == SEVERITY_WARN

    def test_justified_suppression_honoured(self, tmp_path):
        findings = _entropy(tmp_path, {
            "streams.py": (
                "import numpy as np\n"
                "def fresh():\n"
                "    return np.random.default_rng()"
                "  # repro-check: FLW001 -- test-only helper\n"
            ),
        })
        assert findings == []

    def test_repo_tree_is_entropy_clean(self, repo_graph):
        assert check_entropy(repo_graph) == []


# ----------------------------------------------------------------------
# Oracle-pair registry and drift (ORA001-003)
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

    def test_fingerprint_ignores_comments_and_moves(self, tmp_path):
        _, graph = _oracle_tree(tmp_path)
        before = discover_pairs(graph)["demo-pair"].oracle.fingerprint
        root2 = _tree(
            tmp_path / "moved",
            {"kernels.py": _KERNELS.replace(
                "def transform(x):",
                "def transform(x):\n    # a new comment\n",
            )},
            _KERNEL_TESTS,
        )
        after = discover_pairs(ProjectGraph.build(root2))["demo-pair"]
        assert after.oracle.fingerprint == before


class TestOracleDrift:
    def _blessed(self, tmp_path):
        root, graph = _oracle_tree(tmp_path)
        manifest = tmp_path / "oracle_manifest.json"
        write_oracle_manifest(graph, manifest)
        return root, manifest

    def _rewrite(self, root, old, new):
        path = root / "src" / "repro" / "kernels.py"
        path.write_text(path.read_text().replace(old, new))
        return ProjectGraph.build(root)

    def test_blessed_tree_is_clean(self, tmp_path):
        root, manifest = self._blessed(tmp_path)
        graph = ProjectGraph.build(root)
        assert check_oracles(graph, manifest) == []

    def test_oracle_mutation_without_twin_is_drift(self, tmp_path):
        # The acceptance case: edit the scalar oracle, leave the batched
        # kernel and the equivalence test untouched.
        root, manifest = self._blessed(tmp_path)
        graph = self._rewrite(root, "return x * 2 + 1", "return x * 3 + 1")
        findings = check_oracles(graph, manifest)
        assert [f.rule for f in findings] == ["ORA002"]
        assert "repro.kernels.transform" in findings[0].message
        assert findings[0].severity == SEVERITY_ERROR

    def test_kernel_mutation_without_twin_is_drift(self, tmp_path):
        root, manifest = self._blessed(tmp_path)
        graph = self._rewrite(
            root, "return [x * 2 + 1 for x in xs]", "return [2 * x + 1 for x in xs]"
        )
        findings = check_oracles(graph, manifest)
        assert [f.rule for f in findings] == ["ORA002"]
        assert "transform_vec" in findings[0].message

    def test_both_sides_changed_is_stale_not_drift(self, tmp_path):
        root, manifest = self._blessed(tmp_path)
        graph = self._rewrite(root, "x * 2 + 1", "x * 5 + 1")  # both defs
        findings = check_oracles(graph, manifest)
        assert [f.rule for f in findings] == ["ORA003"]

    def test_change_with_test_update_is_stale_not_drift(self, tmp_path):
        root, manifest = self._blessed(tmp_path)
        test_path = root / "tests" / "test_kernels.py"
        test_path.write_text(test_path.read_text() + "\n# updated\n")
        graph = self._rewrite(root, "return x * 2 + 1", "return x * 3 + 1")
        findings = check_oracles(graph, manifest)
        assert [f.rule for f in findings] == ["ORA003"]

    def test_test_only_change_is_clean(self, tmp_path):
        root, manifest = self._blessed(tmp_path)
        test_path = root / "tests" / "test_kernels.py"
        test_path.write_text(test_path.read_text() + "\n# updated\n")
        assert check_oracles(ProjectGraph.build(root), manifest) == []

    def test_missing_manifest_demands_bless(self, tmp_path):
        _, graph = _oracle_tree(tmp_path)
        findings = check_oracles(graph, tmp_path / "absent.json")
        assert "ORA003" in {f.rule for f in findings}
        assert "--update-oracles" in findings[0].message

    def test_one_sided_marker_is_incomplete(self, tmp_path):
        root = _tree(tmp_path, {
            "lonely.py": (
                "# repro-oracle: lonely -- oracle\n"
                "def slow(x):\n"
                "    return x\n"
            ),
        })
        graph = ProjectGraph.build(root)
        manifest = tmp_path / "m.json"
        write_oracle_manifest(graph, manifest)
        findings = check_oracles(graph, manifest)
        assert "ORA001" in {f.rule for f in findings}

    def test_untested_pair_is_incomplete(self, tmp_path):
        root = _tree(tmp_path, {"kernels.py": _KERNELS})  # no tests/
        graph = ProjectGraph.build(root)
        manifest = tmp_path / "m.json"
        write_oracle_manifest(graph, manifest)
        findings = check_oracles(graph, manifest)
        assert {f.rule for f in findings} == {"ORA001"}
        assert len(findings) == 2  # both pairs lack equivalence tests

    def test_repo_manifest_is_current(self, repo_graph):
        assert check_oracles(repo_graph) == []

    def test_repo_pairs_cover_the_kernel_suite(self, repo_graph):
        pairs = discover_pairs(repo_graph)
        assert "mitigation-activation" in pairs
        assert "tracker-misra-gries" in pairs
        assert "dram.address.AddressMapper.decode_batch" in pairs
        assert "analysis.buckets.BucketsAndBalls.success_probability" in pairs
        for pair in pairs.values():
            assert pair.oracle is not None and pair.kernel is not None
            assert pair.tests, f"{pair.pair_id} has no equivalence test"


# ----------------------------------------------------------------------
# Hot-path advisory lint (HOT001-003)
# ----------------------------------------------------------------------
_HOT = (
    "class Engine:\n"
    "    def on_activation_batch(self, rows):\n"
    "        return self.scan(rows)\n"
    "    def scan(self, rows):\n"
    "        out = []\n"
    "        for r in rows:\n"
    "            out.append(r + 1)\n"
    "            tmp = [r, r]\n"
    "            x = self.cfg.scale + self.cfg.scale + self.cfg.scale\n"
    "        return out\n"
    "def cold(rows):\n"
    "    out = []\n"
    "    for r in rows:\n"
    "        out.append(r)\n"
    "    return out\n"
)


class TestHotPath:
    def test_reachable_loop_patterns_flagged(self, tmp_path):
        root = _tree(tmp_path, {"hot.py": _HOT})
        graph = ProjectGraph.build(root)
        findings = check_hotpath(graph, tmp_path / "absent.json")
        rules = sorted(f.rule for f in findings)
        assert rules == ["HOT001", "HOT002", "HOT003"]
        assert all(f.severity == SEVERITY_ADVICE for f in findings)
        assert all("Engine.scan" in f.message for f in findings)

    def test_cold_functions_not_flagged(self, tmp_path):
        root = _tree(tmp_path, {"hot.py": _HOT})
        graph = ProjectGraph.build(root)
        findings = check_hotpath(graph, tmp_path / "absent.json")
        assert not any("cold" in f.message for f in findings)

    def test_baseline_swallows_known_advisories(self, tmp_path):
        root = _tree(tmp_path, {"hot.py": _HOT})
        graph = ProjectGraph.build(root)
        baseline = tmp_path / "baseline.json"
        write_baseline(graph, baseline)
        assert check_hotpath(graph, baseline) == []
        # A *new* advisory still surfaces through the baseline.
        extra = root / "src" / "repro" / "hot2.py"
        extra.write_text(
            "class Other:\n"
            "    def on_activation_batch(self, rows):\n"
            "        acc = []\n"
            "        for r in rows:\n"
            "            acc.append(r)\n"
            "        return acc\n"
        )
        fresh = check_hotpath(ProjectGraph.build(root), baseline)
        assert [f.rule for f in fresh] == ["HOT002"]
        assert "hot2.py" in fresh[0].path

    def test_suppressed_advisory_never_lands_in_baseline(self, tmp_path):
        suppressed = _HOT.replace(
            "            out.append(r + 1)\n",
            "            # repro-check: HOT002 -- bounded by the block length\n"
            "            out.append(r + 1)\n",
        )
        root = _tree(tmp_path, {"hot.py": suppressed})
        graph = ProjectGraph.build(root)
        baseline = tmp_path / "baseline.json"
        write_baseline(graph, baseline)
        keys = json.loads(baseline.read_text())["advisories"]
        assert len(keys) == 2
        assert not any("HOT002" in key for key in keys)
        assert check_hotpath(graph, baseline) == []
        # Dropping the suppression surfaces the advisory again: the
        # baseline never blessed it.
        (root / "src" / "repro" / "hot.py").write_text(_HOT)
        fresh = check_hotpath(ProjectGraph.build(root), baseline)
        assert [f.rule for f in fresh] == ["HOT002"]

    def test_repo_baseline_is_current(self, repo_graph):
        assert check_hotpath(repo_graph) == []
