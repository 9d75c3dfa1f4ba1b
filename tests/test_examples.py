"""Examples stay importable and well-formed.

Full example runs take seconds to minutes; these tests check the cheap
invariants — every example imports cleanly, exposes a ``main``, and
documents itself — so refactors cannot silently break them.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


def test_at_least_the_required_examples_exist():
    names = {path.stem for path in EXAMPLES}
    assert "quickstart" in names
    assert len(names) >= 3


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_parses_and_has_main(path):
    tree = ast.parse(path.read_text())
    assert ast.get_docstring(tree), f"{path.name} needs a docstring"
    functions = {
        node.name for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    assert "main" in functions


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports_cleanly(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    # Import executes top-level code only (all work is inside main()).
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_examples_reference_only_public_api():
    """Examples must not poke private (leading-underscore) attributes."""
    for path in EXAMPLES:
        source = path.read_text()
        for line in source.splitlines():
            stripped = line.split("#")[0]
            assert "._" not in stripped.replace("self._", ""), (
                f"{path.name} uses a private attribute: {line.strip()}"
            )
