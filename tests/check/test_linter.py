"""Determinism linter: rule-by-rule behaviour and tree cleanliness."""

from pathlib import Path

import pytest

from repro.check import linter
from repro.check.linter import DeterminismLinter, lint_paths, lint_tree
from repro.check.findings import RULES, Finding, Reporter

FIXTURE = Path(__file__).parent / "fixtures" / "bad_module.py"
REPO_ROOT = Path(__file__).resolve().parents[2]


def _rules(source: str, path: str = "src/repro/mem/example.py"):
    return {f.rule for f in DeterminismLinter().lint_source(source, path)}


# ----------------------------------------------------------------------
# Individual rules
# ----------------------------------------------------------------------
class TestEntropyRules:
    def test_import_random_flagged(self):
        assert "RRS001" in _rules("import random\n")

    def test_from_random_flagged(self):
        assert "RRS001" in _rules("from random import randint\n")

    def test_numpy_random_attribute_flagged(self):
        source = "import numpy as np\ngen = np.random.default_rng(0)\n"
        assert "RRS001" in _rules(source)

    def test_from_numpy_import_random_flagged(self):
        assert "RRS001" in _rules("from numpy import random\n")

    def test_deterministic_rng_not_flagged(self):
        source = (
            "from repro.utils.rng import DeterministicRng\n"
            "rng = DeterministicRng(7).child('bank', 3)\n"
        )
        assert _rules(source) == set()

    def test_plain_numpy_not_flagged(self):
        assert _rules("import numpy as np\nx = np.zeros(4)\n") == set()


class TestClockRules:
    def test_import_time_flagged(self):
        assert "RRS002" in _rules("import time\n")

    def test_from_time_flagged(self):
        assert "RRS002" in _rules("from time import perf_counter\n")

    def test_datetime_now_flagged(self):
        source = "from datetime import datetime\nstamp = datetime.now()\n"
        assert "RRS002" in _rules(source)


class TestHostEntropyRules:
    def test_os_urandom_flagged(self):
        assert "RRS003" in _rules("import os\nkey = os.urandom(8)\n")

    def test_uuid4_flagged(self):
        assert "RRS003" in _rules("import uuid\nrun_id = uuid.uuid4()\n")

    def test_secrets_flagged(self):
        assert "RRS003" in _rules("import secrets\n")


class TestOrderingRules:
    def test_for_over_set_literal_flagged(self):
        assert "RRS004" in _rules("for x in {1, 2, 3}:\n    pass\n")

    def test_for_over_set_call_flagged(self):
        assert "RRS004" in _rules("for x in set(rows):\n    pass\n")

    def test_comprehension_over_set_flagged(self):
        assert "RRS004" in _rules("out = [x for x in {1, 2}]\n")

    def test_sorted_set_not_flagged(self):
        assert _rules("for x in sorted(set(rows)):\n    pass\n") == set()

    def test_sum_over_dict_values_flagged(self):
        assert "RRS005" in _rules("total = sum(weights.values())\n")

    def test_sum_over_sorted_not_flagged(self):
        source = "total = sum(weights[k] for k in sorted(weights))\n"
        assert _rules(source) == set()


class TestMutableDefaultRule:
    def test_list_default_flagged(self):
        assert "RRS006" in _rules("def f(x=[]):\n    pass\n")

    def test_counter_default_flagged(self):
        source = "from collections import Counter\ndef f(c=Counter()):\n    pass\n"
        assert "RRS006" in _rules(source)

    def test_none_default_not_flagged(self):
        assert _rules("def f(x=None):\n    pass\n") == set()


class TestSlotsRule:
    def test_hot_path_class_without_slots_flagged(self):
        source = "class Bank:\n    def __init__(self):\n        self.x = 1\n"
        findings = DeterminismLinter().lint_source(
            source, "src/repro/dram/bank.py"
        )
        assert {f.rule for f in findings} == {"RRS007"}

    def test_slots_declaration_satisfies(self):
        source = "class Bank:\n    __slots__ = ('x',)\n"
        assert (
            DeterminismLinter().lint_source(source, "src/repro/dram/bank.py")
            == []
        )

    def test_dataclass_slots_satisfies(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass(slots=True)\nclass Bank:\n    x: int = 0\n"
        )
        assert (
            DeterminismLinter().lint_source(source, "src/repro/dram/bank.py")
            == []
        )

    def test_same_name_elsewhere_not_flagged(self):
        source = "class Bank:\n    pass\n"
        assert (
            DeterminismLinter().lint_source(source, "src/other/bank.py") == []
        )


# ----------------------------------------------------------------------
# Suppression syntax
# ----------------------------------------------------------------------
class TestSuppression:
    def test_justified_suppression_honoured(self):
        source = "import random  # repro-check: RRS001 -- test shim only\n"
        assert _rules(source) == set()

    def test_suppression_on_previous_line(self):
        source = (
            "# repro-check: RRS001 -- test shim only\n"
            "import random\n"
        )
        assert _rules(source) == set()

    def test_bare_suppression_reported_and_not_honoured(self):
        source = "import random  # repro-check: RRS001\n"
        assert _rules(source) == {"RRS001", "RRS008"}

    def test_suppression_is_rule_specific(self):
        source = "import random  # repro-check: RRS002 -- wrong rule id\n"
        assert "RRS001" in _rules(source)


# ----------------------------------------------------------------------
# Fixture file, tree scan, reporters
# ----------------------------------------------------------------------
def test_fixture_file_findings():
    findings = lint_paths([FIXTURE])
    rules = {f.rule for f in findings}
    assert {"RRS001", "RRS002", "RRS004", "RRS005", "RRS006", "RRS008"} <= rules
    # The justified suppression must NOT appear.
    suppressed_line = FIXTURE.read_text().splitlines().index(
        "def suppressed_total(weights):"
    ) + 2
    assert not any(
        f.line == suppressed_line and f.rule == "RRS005" for f in findings
    )


def test_tree_is_clean(monkeypatch):
    """The shipped simulation and analysis packages carry zero
    unsuppressed determinism findings."""
    linted = []

    def spy(paths, root=None):
        linted.extend(paths)
        return lint_paths(paths, root=root)

    monkeypatch.setattr(linter, "lint_paths", spy)
    assert lint_tree(REPO_ROOT) == []
    # The Monte Carlo behind Table 4 lives in analysis/.
    assert REPO_ROOT / "src" / "repro" / "analysis" / "buckets.py" in linted


def test_every_emitted_rule_is_documented():
    findings = lint_paths([FIXTURE])
    for finding in findings:
        assert finding.rule in RULES


def test_reporter_json_roundtrip():
    import json

    findings = [
        Finding(rule="RRS001", path="a.py", line=3, message="m", snippet="s")
    ]
    payload = json.loads(Reporter("json").render(findings))
    assert payload["count"] == 1
    assert payload["findings"][0]["rule"] == "RRS001"


def test_reporter_text_mentions_rule_title():
    findings = [Finding(rule="RRS004", path="a.py", line=1, message="m")]
    out = Reporter("text").render(findings)
    assert "RRS004" in out and "unordered-set-iteration" in out


def test_reporter_rejects_unknown_format():
    with pytest.raises(ValueError):
        Reporter("xml")


def test_syntax_error_raises_value_error(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    with pytest.raises(ValueError, match="cannot lint"):
        lint_paths([bad])


class TestPrintRule:
    def test_print_flagged_in_each_silent_package(self):
        for package in ("mem", "dram", "core", "mitigations", "track"):
            assert "RRS009" in _rules(
                "print('x')\n", path=f"src/repro/{package}/example.py"
            ), package

    def test_print_allowed_outside_silent_packages(self):
        for path in (
            "src/repro/analysis/report.py",
            "src/repro/cli.py",
            "src/repro/attacks/base.py",
            "src/repro/workloads/suites.py",
        ):
            assert "RRS009" not in _rules("print('x')\n", path=path), path

    def test_print_suppressible_with_justification(self):
        source = "print('x')  # repro-check: RRS009 -- one-shot debug aid\n"
        assert _rules(source, path="src/repro/dram/example.py") == set()

    def test_shadowed_print_attribute_not_flagged(self):
        # Only the bare builtin is banned; method calls named 'print'
        # on other objects are fine.
        source = "def f(printer):\n    printer.print('x')\n"
        assert "RRS009" not in _rules(source, path="src/repro/mem/example.py")

    def test_core_package_is_linted(self):
        from repro.check.linter import TARGET_PACKAGES

        assert "core" in TARGET_PACKAGES


class TestUnseededGeneratorRule:
    def test_bare_default_rng_flagged(self):
        source = "from numpy.random import default_rng\ngen = default_rng()\n"
        assert "RRS010" in _rules(source)

    def test_attribute_default_rng_unseeded_flagged(self):
        source = "import numpy as np\ngen = np.random.default_rng()\n"
        assert "RRS010" in _rules(source)

    def test_explicit_none_seed_flagged(self):
        source = "import numpy as np\ngen = np.random.default_rng(None)\n"
        assert "RRS010" in _rules(source)
        source = "import numpy as np\ngen = np.random.default_rng(seed=None)\n"
        assert "RRS010" in _rules(source)

    def test_seeded_default_rng_not_rrs010(self):
        # Still RRS001 (raw numpy.random use), but not the unseeded rule.
        source = "import numpy as np\ngen = np.random.default_rng(1234)\n"
        assert "RRS010" not in _rules(source)
        source = "import numpy as np\ngen = np.random.default_rng(seed=12)\n"
        assert "RRS010" not in _rules(source)

    def test_legacy_module_level_call_flagged(self):
        source = "import numpy as np\nx = np.random.randint(0, 10)\n"
        assert "RRS010" in _rules(source)

    def test_generator_over_unseeded_bitgen_flagged(self):
        source = "import numpy as np\ng = np.random.Generator(np.random.PCG64())\n"
        assert "RRS010" in _rules(source)
        source = (
            "from numpy.random import Generator, PCG64\n"
            "g = Generator(PCG64())\n"
        )
        assert "RRS010" in _rules(source)

    def test_generator_over_none_seeded_bitgen_flagged(self):
        source = (
            "import numpy as np\n"
            "g = np.random.Generator(np.random.PCG64(None))\n"
        )
        assert "RRS010" in _rules(source)
        source = (
            "import numpy as np\n"
            "g = np.random.Generator(np.random.PCG64(seed=None))\n"
        )
        assert "RRS010" in _rules(source)

    def test_generator_over_seeded_bitgen_not_rrs010(self):
        # Still RRS001 (raw numpy.random use), but not the unseeded rule.
        source = (
            "import numpy as np\n"
            "g = np.random.Generator(np.random.PCG64(1234))\n"
        )
        assert "RRS010" not in _rules(source)

    def test_bitgen_ctor_alone_not_misflagged_as_legacy_draw(self):
        # PCG64(...) constructs a stream; it is not a draw from the
        # hidden module-level generator.
        source = "import numpy as np\nbg = np.random.PCG64(7)\n"
        findings = DeterminismLinter().lint_source(
            source, "src/repro/mem/example.py"
        )
        assert not any(
            f.rule == "RRS010" and "hidden" in f.message for f in findings
        )

    def test_generator_method_call_not_flagged(self):
        source = (
            "from repro.utils.rng import DeterministicRng\n"
            "gen = DeterministicRng(3, 'para').generator\n"
            "draws = gen.integers(0, 8, size=64)\n"
        )
        assert _rules(source) == set()

    def test_suppression_with_justification(self):
        source = (
            "from numpy.random import default_rng\n"
            "gen = default_rng()  # repro-check: RRS010 -- fixture shim\n"
        )
        assert "RRS010" not in _rules(source)
