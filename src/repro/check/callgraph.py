"""Project-wide symbol table and call graph for the flow passes.

The ``--flow`` passes (snapshot coverage, oracle-pair discovery) share
one substrate: every module under ``src/repro`` parsed once, every
function and class indexed by qualified name, imports resolved to
project symbols, and a conservative call graph over them.

Resolution strategy (deliberately over-approximate — this feeds lint
passes, not a compiler):

* ``f(...)`` — the module's own top-level ``f``, else whatever ``f``
  was imported as (``from repro.x import f``).
* ``self.m(...)`` — ``m`` on the lexically enclosing class if defined
  there, otherwise *every* project method named ``m`` (inheritance and
  duck typing resolved class-hierarchy-analysis style, by name).
* ``obj.m(...)`` / ``alias.f(...)`` — a project-module alias resolves
  to that module's ``f``; any other receiver falls back to the by-name
  method set.

Methods named like ubiquitous builtins (``get``, ``items``, ``append``,
...) never enter the by-name table, which keeps the by-name fallback
from wiring the whole project together.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

# Receiver-less method names too generic to resolve by name: they name
# builtin/stdlib protocol methods far more often than project methods.
_GENERIC_METHOD_NAMES = {
    "get", "items", "keys", "values", "append", "extend", "pop", "add",
    "discard", "remove", "clear", "update", "copy", "sort", "split",
    "join", "strip", "read", "write", "close", "sum", "max", "min",
    "mean", "ravel", "reshape", "astype", "tolist", "fill", "setdefault",
}


@dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    qualname: str  # e.g. repro.track.array_state.ArrayMisraGries.observe
    module: str  # e.g. repro.track.array_state
    path: str  # repo-relative posix path
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    class_name: Optional[str] = None  # unqualified, None for free functions

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[1]


@dataclass
class ClassInfo:
    """One class definition with its method table."""

    qualname: str
    module: str
    path: str
    node: ast.ClassDef
    methods: Dict[str, str] = field(default_factory=dict)  # name -> qualname


@dataclass
class ModuleInfo:
    """One parsed module."""

    name: str  # dotted, e.g. repro.mem.controller
    path: str  # repo-relative posix path
    source: str
    tree: ast.Module
    # local alias -> fully qualified project name it refers to
    # ("np" -> "numpy" style externals are kept too, values verbatim).
    imports: Dict[str, str] = field(default_factory=dict)


def _module_name(path: Path, src_root: Path) -> str:
    relative = path.relative_to(src_root).with_suffix("")
    parts = list(relative.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class ProjectGraph:
    """Symbol tables plus a conservative call graph over ``src/repro``."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.calls: Dict[str, Set[str]] = {}
        self._methods_by_name: Dict[str, Set[str]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, root: Path, packages: Optional[Iterable[str]] = None) -> "ProjectGraph":
        """Parse and index every module under ``<root>/src/repro``.

        ``packages`` restricts the walk to named subpackages (plus the
        top-level modules); the default is the whole project.
        """
        graph = cls(root)
        src_root = Path(root) / "src"
        repro_root = src_root / "repro"
        files: List[Path] = []
        if packages is None:
            files = sorted(repro_root.rglob("*.py"))
        else:
            files = sorted(repro_root.glob("*.py"))
            for package in packages:
                files.extend(sorted((repro_root / package).rglob("*.py")))
        for path in files:
            graph._index_module(path, src_root)
        for module in graph.modules.values():
            graph._link_module(module)
        return graph

    def _index_module(self, path: Path, src_root: Path) -> None:
        source = path.read_text()
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:  # pragma: no cover - tree is parseable
            raise ValueError(f"cannot parse {path}: {exc}") from exc
        name = _module_name(path, src_root)
        display = path.relative_to(self.root).as_posix()
        module = ModuleInfo(name=name, path=display, source=source, tree=tree)
        self.modules[name] = module

        for statement in tree.body:
            if isinstance(statement, ast.Import):
                for alias in statement.names:
                    module.imports[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(statement, ast.ImportFrom) and statement.module:
                for alias in statement.names:
                    module.imports[alias.asname or alias.name] = (
                        f"{statement.module}.{alias.name}"
                    )
            elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(statement, module, class_name=None)
            elif isinstance(statement, ast.ClassDef):
                info = ClassInfo(
                    qualname=f"{name}.{statement.name}",
                    module=name,
                    path=display,
                    node=statement,
                )
                self.classes[info.qualname] = info
                for item in statement.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        fn = self._add_function(
                            item, module, class_name=statement.name
                        )
                        info.methods[item.name] = fn.qualname

    def _add_function(
        self, node: ast.AST, module: ModuleInfo, class_name: Optional[str]
    ) -> FunctionInfo:
        stem = f"{module.name}.{class_name}" if class_name else module.name
        info = FunctionInfo(
            qualname=f"{stem}.{node.name}",
            module=module.name,
            path=module.path,
            node=node,
            class_name=class_name,
        )
        self.functions[info.qualname] = info
        if class_name and node.name not in _GENERIC_METHOD_NAMES:
            self._methods_by_name.setdefault(node.name, set()).add(info.qualname)
        return info

    # ------------------------------------------------------------------
    # Call-edge resolution
    # ------------------------------------------------------------------
    def _link_module(self, module: ModuleInfo) -> None:
        for info in self.functions.values():
            if info.module != module.name:
                continue
            callees: Set[str] = set()
            for call in ast.walk(info.node):
                if isinstance(call, ast.Call):
                    callees.update(self._resolve_call(call.func, info, module))
            self.calls[info.qualname] = callees

    def _resolve_call(
        self, func: ast.AST, caller: FunctionInfo, module: ModuleInfo
    ) -> Set[str]:
        if isinstance(func, ast.Name):
            local = f"{module.name}.{func.id}"
            if local in self.functions:
                return {local}
            target = module.imports.get(func.id)
            if target and target in self.functions:
                return {target}
            if target and target in self.classes:
                init = self.classes[target].methods.get("__init__")
                return {init} if init else set()
            return set()
        if isinstance(func, ast.Attribute):
            owner = func.value
            if isinstance(owner, ast.Name):
                if owner.id == "self" and caller.class_name:
                    own_class = f"{module.name}.{caller.class_name}"
                    info = self.classes.get(own_class)
                    if info and func.attr in info.methods:
                        return {info.methods[func.attr]}
                    return set(self._methods_by_name.get(func.attr, ()))
                target = module.imports.get(owner.id)
                if target and target in self.modules:
                    candidate = f"{target}.{func.attr}"
                    if candidate in self.functions:
                        return {candidate}
                    return set()
            return set(self._methods_by_name.get(func.attr, ()))
        return set()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def resolve_call(
        self, func: ast.AST, caller: FunctionInfo
    ) -> Set[str]:
        """Project qualnames a call expression may dispatch to."""
        return self._resolve_call(func, caller, self.modules[caller.module])

    def functions_named(self, name: str) -> List[FunctionInfo]:
        """Every project function/method with this unqualified name."""
        return [f for f in self.functions.values() if f.name == name]

    def reachable_from(self, roots: Iterable[str]) -> Set[str]:
        """Transitive closure of the call graph from root qualnames."""
        seen: Set[str] = set()
        frontier = [q for q in roots if q in self.functions]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self.calls.get(current, ()))
        return seen

    def source_lines(self, module: str) -> Tuple[str, ...]:
        return tuple(self.modules[module].source.splitlines())
