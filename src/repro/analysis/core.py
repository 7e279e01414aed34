"""Primitives of the determinism static analyzer.

The analyzer encodes, as AST checks, the contracts the dynamic test suite
can only probe on the paths it happens to execute: simulation code draws
randomness exclusively from injected generators, iteration feeding results
is explicitly ordered, result paths never read the wall clock, hot-loop
telemetry is guarded by the branch-on-local-bool pattern, and every
loop/vectorized kernel pair stays reachable from its config switch.

This module holds the shared machinery: :class:`Finding` (one diagnostic),
:class:`FileContext` (parsed source plus parent links and qualified
names), :class:`ImportMap` (static resolution of dotted call
targets through import aliases), and the rule registry.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple, Type

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.analysis.config import AnalysisConfig
    from repro.analysis.project import ProjectModel

__all__ = [
    "Severity",
    "Finding",
    "FileContext",
    "ImportMap",
    "Rule",
    "ProjectRule",
    "register",
    "all_rules",
    "select_rules",
]


class Severity(str, Enum):
    """How a finding is ranked in reports (all findings gate CI equally)."""

    ERROR = "error"
    WARNING = "warning"


#: Lifecycle states a finding moves through while the report is assembled.
STATUS_ACTIVE = "active"
STATUS_SUPPRESSED = "suppressed"


@dataclass
class Finding:
    """One diagnostic emitted by a rule for one source location."""

    rule: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str
    #: The stripped source line, shown in the report.
    snippet: str = ""
    status: str = STATUS_ACTIVE
    #: Why the finding does not gate (its inline suppression's reason).
    justification: str = ""

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def format(self) -> str:
        tag = "" if self.status == STATUS_ACTIVE else f" [{self.status}]"
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} {self.severity.value}{tag}: {self.message}"
        )


class FileContext:
    """A parsed source file plus the derived lookups rules need.

    Parent links and qualified names are computed once here so every rule
    visitor can walk upward (guard detection, allowed-context matching)
    without each rebuilding the maps.
    """

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.lines: List[str] = source.splitlines()
        # Posix-ish segments used for scope matching; keep them exactly as
        # reported so findings and scopes agree on one spelling.
        self.parts: Tuple[str, ...] = tuple(
            segment for segment in path.replace("\\", "/").split("/") if segment
        )
        self._parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
        self.imports = ImportMap.from_tree(tree)

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def qualname(self, node: ast.AST) -> str:
        """Dotted enclosing-scope name, e.g. ``ArtifactCache.__len__``."""
        names: List[str] = []
        current: Optional[ast.AST] = node
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.append(current.name)
            current = self._parents.get(current)
        return ".".join(reversed(names))

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return ancestor
        return None


def path_matches(parts: Sequence[str], pattern: str) -> bool:
    """True when ``pattern``'s segments appear consecutively in ``parts``.

    ``"repro/p2psim/"`` matches ``src/repro/p2psim/market_sim.py`` whether
    the analyzed path was relative or absolute; a trailing filename in the
    pattern (``repro/runner/cache.py``) anchors on that file.
    """
    needle = tuple(segment for segment in pattern.replace("\\", "/").split("/") if segment)
    if not needle:
        return False
    span = len(needle)
    return any(
        tuple(parts[start : start + span]) == needle
        for start in range(len(parts) - span + 1)
    )


class ImportMap:
    """Static resolution of call targets through module/member imports."""

    def __init__(self) -> None:
        #: local name -> dotted module path ("np" -> "numpy")
        self.module_aliases: Dict[str, str] = {}
        #: local name -> (module, member) ("shuffle" -> ("random", "shuffle"))
        self.member_aliases: Dict[str, Tuple[str, str]] = {}

    @classmethod
    def from_tree(cls, tree: ast.Module) -> "ImportMap":
        imports = cls()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        imports.module_aliases[alias.asname] = alias.name
                    else:
                        # `import numpy.random` binds the top-level name.
                        top = alias.name.split(".", 1)[0]
                        imports.module_aliases[top] = top
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    local = alias.asname if alias.asname is not None else alias.name
                    imports.member_aliases[local] = (node.module, alias.name)
        return imports

    def resolve(self, func: ast.expr) -> Optional[str]:
        """Dotted target of a call expression, or ``None`` if not static.

        ``np.random.poisson`` resolves to ``numpy.random.poisson`` under
        ``import numpy as np``; ``shuffle`` resolves to ``random.shuffle``
        under ``from random import shuffle``.  Attribute chains rooted in
        anything but an imported name (``self.rng.poisson``) resolve to
        ``None`` — those are injected objects, exactly what the contract
        wants call sites to use.
        """
        attrs: List[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base: Optional[str] = None
        if node.id in self.member_aliases:
            module, member = self.member_aliases[node.id]
            base = f"{module}.{member}"
        elif node.id in self.module_aliases:
            base = self.module_aliases[node.id]
        if base is None:
            return None
        return ".".join([base, *reversed(attrs)])


class Rule:
    """Base class: one contract, one rule id, one AST check per file."""

    id: str = ""
    severity: Severity = Severity.ERROR
    #: One-line contract statement shown by ``repro analyze --list-rules``.
    summary: str = ""

    def check(self, ctx: FileContext, config: "AnalysisConfig") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=ctx.path,
            line=line,
            col=col,
            message=message,
            snippet=ctx.snippet(line),
        )


class ProjectRule(Rule):
    """Base class for pass-2 rules that run against the whole-program model.

    Project rules see every module at once (import graph, call graph,
    flow closures) instead of one AST.  Their per-file :meth:`check` is a
    no-op unless a rule also has a per-file half (DET002); the walker
    invokes :meth:`check_project` after the model is built, then routes
    the findings through the same scope, allowed-context and suppression
    machinery as per-file findings.
    """

    def check(self, ctx: FileContext, config: "AnalysisConfig") -> Iterator[Finding]:
        return iter(())

    def check_project(
        self, model: "ProjectModel", config: "AnalysisConfig"
    ) -> Iterator[Finding]:
        raise NotImplementedError

    def project_finding(
        self, path: str, line: int, col: int, snippet: str, message: str
    ) -> Finding:
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=path,
            line=line,
            col=col,
            message=message,
            snippet=snippet,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.id:
        raise ValueError(f"rule class {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id}")
    _REGISTRY[cls.id] = cls
    return cls


def all_rules() -> List[Rule]:
    """Instantiate every registered rule, ordered by id."""
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def select_rules(ids: Sequence[str]) -> List[Rule]:
    """Instantiate the requested rules; raises ``KeyError`` on unknown ids."""
    unknown = sorted(set(ids) - set(_REGISTRY))
    if unknown:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown rule id(s) {', '.join(unknown)} (known: {known})")
    return [_REGISTRY[rule_id]() for rule_id in sorted(set(ids))]


