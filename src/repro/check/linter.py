"""AST determinism linter (rules RRS001-RRS010).

The cache in :mod:`repro.exec.cache` replays results keyed only by the
:class:`~repro.exec.runner.SweepPoint`; that is sound *only if* every
simulation is a pure, deterministic function of the point. This pass
statically rejects the ways that invariant rots: raw entropy sources,
wall-clock reads, unordered iteration, implicit float-accumulation
order, mutable default arguments, and missing ``__slots__`` on the
hot-path classes the sweep executor's throughput depends on.

Scope: the simulation packages
``src/repro/{core,dram,mem,mitigations,attacks,track,workloads}`` plus
``src/repro/analysis``, which holds the seeded Monte Carlo.
``repro.utils.rng`` is the sanctioned entropy funnel and is exempt (it
is outside the linted set by construction). RRS009 (no bare ``print``)
applies to the silent subset ``{mem,dram,core,mitigations,track}`` —
the packages a traced simulation flows through, where stdout output
would corrupt machine-readable sweep results.

See :mod:`repro.check.findings` for the rule table and the suppression
comment syntax.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.check.findings import Finding, apply_suppressions

# Packages under src/repro whose files are linted by default.
TARGET_PACKAGES: Tuple[str, ...] = (
    "core",
    "dram",
    "mem",
    "mitigations",
    "attacks",
    "track",
    "workloads",
    "analysis",
)

# Packages where RRS009 bans bare print(): the simulation data path.
_PRINT_BAN_RE = re.compile(r"(^|/)repro/(mem|dram|core|mitigations|track)/")

# Hot-path classes that must carry __slots__ (RRS007), keyed by the
# path suffix of the module that defines them.
HOT_PATH_CLASSES: Dict[str, str] = {
    "MemoryRequest": "mem/request.py",
    "Core": "mem/cpu.py",
    "CoreConfig": "mem/cpu.py",
    "Bank": "dram/bank.py",
    "BankTimingState": "dram/timing.py",
    "AccessOutcome": "dram/timing.py",
}

# numpy.random BitGenerator constructors (RRS010 seed policing).
_BITGEN_NAMES = {"PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"}

_MUTABLE_FACTORY_NAMES = {
    "list",
    "dict",
    "set",
    "Counter",
    "OrderedDict",
    "defaultdict",
    "deque",
}

class _FileVisitor(ast.NodeVisitor):
    """Collects raw (unsuppressed) findings for one module."""

    def __init__(self, path: str, lines: Sequence[str]) -> None:
        self.path = path
        self.lines = lines
        self.findings: List[Finding] = []
        self._numpy_aliases: Set[str] = set()
        self._ban_print = bool(
            _PRINT_BAN_RE.search(path.replace("\\", "/"))
        )

    # ------------------------------------------------------------------
    def _add(self, rule: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        snippet = ""
        if 1 <= line <= len(self.lines):
            snippet = self.lines[line - 1].strip()
        self.findings.append(
            Finding(
                rule=rule,
                path=self.path,
                line=line,
                message=message,
                snippet=snippet,
            )
        )

    # ------------------------------------------------------------------
    # Imports (RRS001/RRS002/RRS003)
    # ------------------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            name = alias.name
            if name == "random" or name.startswith("numpy.random"):
                self._add(
                    "RRS001",
                    node,
                    f"import of {name!r}; draw from "
                    "repro.utils.rng.DeterministicRng instead",
                )
            elif name in ("numpy",):
                self._numpy_aliases.add(alias.asname or name)
            elif name == "time":
                self._add(
                    "RRS002",
                    node,
                    "import of 'time'; simulated time comes from the "
                    "simulator clock, not the host",
                )
            elif name == "secrets":
                self._add("RRS003", node, "import of 'secrets' (host entropy)")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if module == "random" or module.startswith("numpy.random"):
            self._add(
                "RRS001",
                node,
                f"import from {module!r}; draw from "
                "repro.utils.rng.DeterministicRng instead",
            )
        elif module == "numpy":
            for alias in node.names:
                if alias.name == "random":
                    self._add(
                        "RRS001",
                        node,
                        "import of numpy.random; draw from "
                        "repro.utils.rng.DeterministicRng instead",
                    )
        elif module == "time":
            self._add(
                "RRS002",
                node,
                "import from 'time'; simulated time comes from the "
                "simulator clock, not the host",
            )
        elif module == "secrets":
            self._add("RRS003", node, "import from 'secrets' (host entropy)")
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # Calls and attribute uses (RRS001/RRS002/RRS003/RRS005)
    # ------------------------------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            node.attr == "random"
            and isinstance(node.value, ast.Name)
            and node.value.id in self._numpy_aliases
        ):
            self._add(
                "RRS001",
                node,
                "use of numpy.random; derive a DeterministicRng child "
                "stream instead",
            )
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # Unseeded generators (RRS010)
    # ------------------------------------------------------------------
    @staticmethod
    def _is_default_rng(func: ast.AST) -> bool:
        if isinstance(func, ast.Name):
            return func.id == "default_rng"
        return isinstance(func, ast.Attribute) and func.attr == "default_rng"

    @staticmethod
    def _is_generator_ctor(func: ast.AST) -> bool:
        if isinstance(func, ast.Name):
            return func.id == "Generator"
        return isinstance(func, ast.Attribute) and func.attr == "Generator"

    @staticmethod
    def _is_unseeded_bitgen(node: ast.AST) -> bool:
        """True for ``PCG64()`` / ``MT19937(None)`` / friends."""
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else ""
        )
        if name not in _BITGEN_NAMES:
            return False
        if node.args:
            first = node.args[0]
            return isinstance(first, ast.Constant) and first.value is None
        for keyword in node.keywords:
            if keyword.arg == "seed":
                return (
                    isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is None
                )
        return True

    @staticmethod
    def _seed_argument_missing(node: ast.Call) -> bool:
        """True when default_rng() gets no seed (or an explicit None)."""
        if node.args:
            first = node.args[0]
            return isinstance(first, ast.Constant) and first.value is None
        for keyword in node.keywords:
            if keyword.arg == "seed":
                return (
                    isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is None
                )
        return True

    def _check_unseeded_generator(self, node: ast.Call) -> None:
        func = node.func
        if self._is_generator_ctor(func) and node.args:
            # Direct Generator(PCG64()) construction bypasses the
            # default_rng() syntax entirely — same OS-entropy hazard.
            if self._is_unseeded_bitgen(node.args[0]):
                self._add(
                    "RRS010",
                    node,
                    "Generator() over an unseeded bit generator draws OS "
                    "entropy; derive a seeded stream from "
                    "repro.utils.rng.DeterministicRng",
                )
            return
        if self._is_default_rng(func):
            # Seeded default_rng via np.random is RRS001's business
            # (raw numpy.random use); RRS010 only polices the seed.
            if self._seed_argument_missing(node):
                self._add(
                    "RRS010",
                    node,
                    "unseeded default_rng() draws OS entropy; derive a "
                    "seeded stream from repro.utils.rng.DeterministicRng",
                )
            return
        # Legacy module-level API: np.random.randint(...) and friends
        # share one hidden global BitGenerator across the process.
        # Class constructors (Generator, PCG64, SeedSequence, ...) are
        # not draws from that generator; their seeding is policed above.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "random"
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id in self._numpy_aliases
            and func.attr not in _BITGEN_NAMES
            and func.attr not in ("Generator", "SeedSequence", "BitGenerator")
        ):
            self._add(
                "RRS010",
                node,
                f"module-level np.random.{func.attr}() uses the hidden "
                "process-global generator; thread a seeded Generator "
                "from repro.utils.rng.DeterministicRng instead",
            )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        self._check_unseeded_generator(node)
        if isinstance(func, ast.Attribute):
            owner = func.value
            if isinstance(owner, ast.Name):
                if owner.id == "os" and func.attr == "urandom":
                    self._add("RRS003", node, "os.urandom() is host entropy")
                elif owner.id == "uuid" and func.attr in ("uuid1", "uuid4"):
                    self._add(
                        "RRS003", node, f"uuid.{func.attr}() is host entropy"
                    )
                elif owner.id in ("datetime", "date") and func.attr in (
                    "now",
                    "utcnow",
                    "today",
                ):
                    self._add(
                        "RRS002",
                        node,
                        f"{owner.id}.{func.attr}() reads the wall clock",
                    )
        if (
            self._ban_print
            and isinstance(func, ast.Name)
            and func.id == "print"
        ):
            self._add(
                "RRS009",
                node,
                "bare print() in a simulation package; surface data "
                "through SimMetrics or a repro.obs trace event instead",
            )
        if (
            isinstance(func, ast.Name)
            and func.id == "sum"
            and node.args
            and isinstance(node.args[0], ast.Call)
            and isinstance(node.args[0].func, ast.Attribute)
            and node.args[0].func.attr in ("values", "items")
        ):
            self._add(
                "RRS005",
                node,
                f"sum() over .{node.args[0].func.attr}() accumulates in "
                "mapping insertion order; sort the keys (or use "
                "math.fsum) to pin the order",
            )
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # Iteration order (RRS004)
    # ------------------------------------------------------------------
    @staticmethod
    def _is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )

    def _check_iter(self, iter_node: ast.AST) -> None:
        if self._is_set_expr(iter_node):
            self._add(
                "RRS004",
                iter_node,
                "iterating a set; per-process hash salting makes the "
                "order nondeterministic — wrap in sorted(...)",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for gen in node.generators:
            self._check_iter(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # ------------------------------------------------------------------
    # Function defaults (RRS006)
    # ------------------------------------------------------------------
    @staticmethod
    def _is_mutable_default(node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _MUTABLE_FACTORY_NAMES
        )

    def _visit_function(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if self._is_mutable_default(default):
                self._add(
                    "RRS006",
                    default,
                    f"mutable default argument in {node.name}(); use "
                    "None and construct inside the body",
                )
        self.generic_visit(node)

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # ------------------------------------------------------------------
    # Hot-path __slots__ (RRS007)
    # ------------------------------------------------------------------
    @staticmethod
    def _declares_slots(node: ast.ClassDef) -> bool:
        for statement in node.body:
            targets = []
            if isinstance(statement, ast.Assign):
                targets = statement.targets
            elif isinstance(statement, ast.AnnAssign):
                targets = [statement.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        for decorator in node.decorator_list:
            if isinstance(decorator, ast.Call):
                for keyword in decorator.keywords:
                    if (
                        keyword.arg == "slots"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is True
                    ):
                        return True
        return False

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        expected_module = HOT_PATH_CLASSES.get(node.name)
        normalized = self.path.replace("\\", "/")
        if expected_module is not None and normalized.endswith(expected_module):
            if not self._declares_slots(node):
                self._add(
                    "RRS007",
                    node,
                    f"hot-path class {node.name} must declare __slots__ "
                    "(or dataclass(slots=True))",
                )
        self.generic_visit(node)


class DeterminismLinter:
    """Runs the rule set over files, honouring suppression comments."""

    def lint_source(self, source: str, path: str) -> List[Finding]:
        """Findings for one module's source text."""
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            raise ValueError(f"cannot lint {path}: {exc}") from exc
        visitor = _FileVisitor(path, source.splitlines())
        visitor.visit(tree)
        return apply_suppressions(visitor.findings, source, path)

    def lint_file(self, path: Path, display_path: str = "") -> List[Finding]:
        """Findings for one file on disk."""
        source = Path(path).read_text()
        return self.lint_source(source, display_path or str(path))


def lint_paths(paths: Iterable[Path], root: Optional[Path] = None) -> List[Finding]:
    """Lint explicit files; paths are reported relative to ``root``."""
    linter = DeterminismLinter()
    findings: List[Finding] = []
    for path in paths:
        path = Path(path)
        display = str(path)
        if root is not None:
            try:
                display = str(path.resolve().relative_to(Path(root).resolve()))
            except ValueError:
                display = str(path)
        findings.extend(linter.lint_file(path, display_path=display))
    return findings


def lint_tree(root: Path) -> List[Finding]:
    """Lint every module of the simulation packages under ``root``."""
    root = Path(root)
    files: List[Path] = []
    for package in TARGET_PACKAGES:
        package_dir = root / "src" / "repro" / package
        if package_dir.is_dir():
            files.extend(sorted(package_dir.rglob("*.py")))
    return lint_paths(files, root=root)
