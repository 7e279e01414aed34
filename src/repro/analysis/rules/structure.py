"""Structural rules: telemetry guards and parse failures.

OBS001 enforces the branch-on-local-bool pattern that keeps the
telemetry-overhead CI gate honest.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.config import AnalysisConfig
from repro.analysis.core import FileContext, Finding, Rule, Severity, register

__all__ = ["UnguardedEmitterRule", "ParseFailureRule"]

#: Emitter event methods (see repro.obs.emitter.MetricsEmitter).
_EMITTER_METHODS = {"counter", "gauge", "point", "mark", "timing", "span"}

@register
class UnguardedEmitterRule(Rule):
    """OBS001 — hot-loop telemetry must branch on a local enabled bool."""

    id = "OBS001"
    severity = Severity.WARNING
    summary = (
        "emitter call inside a per-round/per-tick loop without an "
        "`if <enabled-bool>:` guard (branch-on-local-bool pattern)"
    )

    def check(self, ctx: FileContext, config: AnalysisConfig) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if not self._is_emitter_call(ctx, node):
                continue
            loop = self._enclosing_loop(ctx, node)
            if loop is None:
                continue
            if self._is_guarded(ctx, node, loop):
                continue
            if config.allowed_context(self.id, ctx, node) is not None:
                continue
            method = node.func.attr if isinstance(node.func, ast.Attribute) else "?"
            yield self.finding(
                ctx,
                node,
                f"`emitter.{method}(...)` runs on every loop iteration even "
                "when telemetry is disabled — hoist `enabled = "
                "emitter.enabled` out of the loop and guard the call with "
                "`if enabled:` (the pattern the telemetry-overhead gate "
                "assumes)",
            )

    def _is_emitter_call(self, ctx: FileContext, node: ast.Call) -> bool:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in _EMITTER_METHODS:
            return False
        base = func.value
        if isinstance(base, ast.Name) and "emitter" in base.id.lower():
            return True
        if isinstance(base, ast.Call):
            if isinstance(base.func, ast.Name) and base.func.id == "get_emitter":
                return True
            target = ctx.imports.resolve(base.func)
            if target is not None and target.endswith(".get_emitter"):
                return True
        return False

    def _enclosing_loop(self, ctx: FileContext, node: ast.Call) -> Optional[ast.AST]:
        """Nearest For/While above ``node`` within the same function."""
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, (ast.For, ast.AsyncFor, ast.While)):
                return ancestor
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return None
        return None

    def _is_guarded(self, ctx: FileContext, node: ast.Call, loop: ast.AST) -> bool:
        current: ast.AST = node
        while current is not loop:
            parent = ctx.parent(current)
            if parent is None:
                return False
            if (
                isinstance(parent, ast.If)
                and _is_enabled_guard(parent.test)
                and any(current is stmt for stmt in parent.body)
            ):
                return True
            current = parent
        return False


def _is_enabled_guard(test: ast.expr) -> bool:
    """A plain local bool, an ``.enabled`` read, or an `and` of those."""
    if isinstance(test, ast.Name):
        return True
    if isinstance(test, ast.Attribute) and test.attr == "enabled":
        return True
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return any(_is_enabled_guard(value) for value in test.values)
    return False


# PARSE001 is emitted by the walker when a file fails to parse, not by AST
# visitation; it is registered so it appears in --list-rules and carries a
# documented severity.


@register
class ParseFailureRule(Rule):
    """PARSE001 — files the analyzer cannot parse gate the build."""

    id = "PARSE001"
    severity = Severity.ERROR
    summary = "source file failed to parse; the analyzer cannot vouch for it"

    def check(self, ctx: FileContext, config: AnalysisConfig) -> Iterator[Finding]:
        return iter(())
