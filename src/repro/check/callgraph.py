"""Project-wide symbol table for the flow passes.

The ``--flow`` passes (snapshot coverage, oracle-pair discovery) share
one substrate: every module under ``src/repro`` parsed once, every
function and class indexed by qualified name, and each module's
imports recorded so base classes and aliases resolve to project
symbols.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

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
    """Symbol tables over ``src/repro``."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}

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
        return info

    def source_lines(self, module: str) -> Tuple[str, ...]:
        return tuple(self.modules[module].source.splitlines())
