"""Determinism rules: RNG injection, ordered iteration, wall-clock reads.

These encode the reproducibility contract the dynamic suite asserts by
example (loop/vectorized bit-identity, jobs=1 vs jobs=N byte-identity,
warm-cache equivalence): results may depend only on the config, the seed
and the code — never on interpreter hash seeds, filesystem order, global
RNG state or the time of day.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.analysis.config import AnalysisConfig
from repro.analysis.core import FileContext, Finding, ProjectRule, Rule, Severity, register
from repro.analysis.project import IterationCall, ProjectModel, iterables, unwrap_iterable

__all__ = ["GlobalRngRule", "UnorderedIterationRule", "WallClockRule"]

#: numpy.random attributes that *construct* injectable generators — the
#: sanctioned spellings.  Everything else on numpy.random (poisson, rand,
#: seed, shuffle, ...) touches or samples hidden global state.
_NP_RANDOM_ALLOWED = {
    "default_rng",
    "Generator",
    "RandomState",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "MT19937",
    "Philox",
    "SFC64",
}

#: stdlib ``random`` attributes that construct injectable instances.
#: ``SystemRandom`` is deliberately NOT allowed — OS entropy is
#: nondeterministic by design.
_STDLIB_RANDOM_ALLOWED = {"Random"}

#: Call targets that read the wall clock.  Monotonic duration sources
#: (``time.perf_counter``, ``time.monotonic``) are never flagged: they
#: measure spans, not timestamps, and cannot leak into result content.
_WALLCLOCK_TARGETS = {
    "time.time",
    "time.time_ns",
    "time.localtime",
    "time.gmtime",
    "time.ctime",
    "time.asctime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Set-producing method names: only sets (and frozensets) grow these, so a
#: call like ``a.union(b)`` is treated as set-valued.
_SET_METHODS = {"union", "intersection", "difference", "symmetric_difference"}

#: Filesystem listings whose order is platform-dependent.
_FS_LIST_TARGETS = {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
_FS_LIST_METHODS = {"iterdir", "glob", "rglob", "scandir"}


@register
class GlobalRngRule(Rule):
    """DET001 — randomness must come from an injected Generator."""

    id = "DET001"
    severity = Severity.ERROR
    summary = (
        "global/module-level RNG call (np.random.*, random.*) in simulation "
        "code; draw from an injected numpy Generator (utils.rng.make_rng)"
    )

    def check(self, ctx: FileContext, config: AnalysisConfig) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.imports.resolve(node.func)
            if target is None:
                continue
            message: Optional[str] = None
            if target.startswith("numpy.random."):
                attr = target.rsplit(".", 1)[1]
                if attr not in _NP_RANDOM_ALLOWED:
                    message = (
                        f"call to global numpy RNG `{target}` — draw from an "
                        "injected `np.random.Generator` instead"
                    )
            elif target.startswith("random."):
                attr = target.split(".", 1)[1]
                if "." not in attr and attr not in _STDLIB_RANDOM_ALLOWED:
                    message = (
                        f"call to stdlib global RNG `{target}` — use an injected "
                        "`random.Random(seed)` or numpy Generator instead"
                    )
            if message is not None and config.allowed_context(self.id, ctx, node) is None:
                yield self.finding(ctx, node, message)


class _SetLocalCollector(ast.NodeVisitor):
    """Names assigned a set-valued expression anywhere in the module.

    Mostly flow-insensitive: a name that ever holds a set is treated as
    set-valued at every iteration site.  The one flow fact honoured is
    the sanitizing reassignment — ``x = sorted(x)`` (or ``list(sorted(x))``)
    re-binds the name to an explicitly ordered list, which is exactly the
    fix DET002 asks for, so the name stops counting as set-valued from
    then on.  Remaining false positives are cheap to silence with
    ``sorted(...)`` at the iteration site or an allowed context.
    """

    def __init__(self) -> None:
        self.set_names: Set[str] = set()

    def _rebind(self, name: str, value: ast.expr) -> None:
        if _is_sanitizing_expr(value):
            self.set_names.discard(name)
        elif _is_set_expr(value, self.set_names):
            self.set_names.add(name)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._rebind(target.id, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None and isinstance(node.target, ast.Name):
            self._rebind(node.target.id, node.value)
        self.generic_visit(node)


def _is_sanitizing_expr(node: ast.expr) -> bool:
    """True for ``sorted(...)`` and ``list/tuple(sorted(...))`` wrappers."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
        return False
    if node.func.id == "sorted":
        return True
    return (
        node.func.id in ("list", "tuple")
        and bool(node.args)
        and _is_sanitizing_expr(node.args[0])
    )


def _is_set_expr(node: ast.expr, set_names: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
            return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    return False


@register
class UnorderedIterationRule(ProjectRule):
    """DET002 — iteration feeding results must have explicit order.

    The per-file pass sees set literals, ``set(...)``/``frozenset(...)``
    calls, set-algebra methods, names bound to those and filesystem
    listings.  The project pass adds calls to any analyzed function or
    method annotated to return ``Set``/``FrozenSet``/``set``/``frozenset``,
    wherever it is defined.  A function call is resolved through imports;
    a method called on an arbitrary object (``self.topology.neighbors(p)``)
    is matched by its name alone, which is conservative.
    """

    id = "DET002"
    severity = Severity.ERROR
    summary = (
        "iteration over a set or a filesystem listing without sorted(...); "
        "set/dir order is interpreter- and platform-dependent"
    )

    def check(self, ctx: FileContext, config: AnalysisConfig) -> Iterator[Finding]:
        collector = _SetLocalCollector()
        collector.visit(ctx.tree)
        for candidate in iterables(ctx.tree):
            message = self._diagnose(ctx, candidate, collector.set_names)
            if message is None:
                continue
            if config.allowed_context(self.id, ctx, candidate) is not None:
                continue
            yield self.finding(ctx, candidate, message)

    def _diagnose(
        self, ctx: FileContext, node: ast.expr, set_names: Set[str]
    ) -> Optional[str]:
        # `list(s)` / `tuple(s)` preserve the unordered traversal; unwrap.
        unwrapped = unwrap_iterable(node)
        if _is_set_expr(unwrapped, set_names):
            return (
                "iteration over a set has no deterministic order — wrap the "
                "iterable in sorted(...) before it can feed results"
            )
        target = ctx.imports.resolve(unwrapped.func) if isinstance(unwrapped, ast.Call) else None
        if target in _FS_LIST_TARGETS:
            return (
                f"`{target}` returns entries in platform-dependent order — "
                "wrap the listing in sorted(...)"
            )
        if (
            isinstance(unwrapped, ast.Call)
            and isinstance(unwrapped.func, ast.Attribute)
            and unwrapped.func.attr in _FS_LIST_METHODS
            and target is None
        ):
            return (
                f"`.{unwrapped.func.attr}()` yields filesystem entries in "
                "platform-dependent order — wrap the listing in sorted(...)"
            )
        return None

    def check_project(
        self, model: ProjectModel, config: AnalysisConfig
    ) -> Iterator[Finding]:
        set_valued: Set[str] = set()
        set_methods: Set[str] = set()
        for summary in model.summaries.values():
            for qualname in summary.set_returning:
                set_valued.add(f"{summary.module}:{qualname}")
                if "." in qualname:
                    set_methods.add(qualname.rsplit(".", 1)[1])
        for summary in model.summaries.values():
            if not config.covers_path(self.id, summary.path):
                continue
            for site in summary.iteration_calls:
                name = _set_valued_call(model, summary.module, site, set_valued, set_methods)
                if name is None:
                    continue
                if config.allowed_context_for_path(self.id, summary.path, site.qualname):
                    continue
                yield self.project_finding(
                    path=summary.path,
                    line=site.line,
                    col=site.col,
                    snippet=site.snippet,
                    message=(
                        f"iteration over `{name}(...)`, which is annotated to "
                        "return a set, has no deterministic order — return an "
                        "ordered sequence or wrap the call in sorted(...)"
                    ),
                )


def _set_valued_call(
    model: ProjectModel,
    module: str,
    site: IterationCall,
    set_valued: Set[str],
    set_methods: Set[str],
) -> Optional[str]:
    """The name of the set-returning function ``site`` iterates over, if any."""
    target = site.target
    if target is None:
        return site.method if site.method in set_methods else None
    if target.startswith("self:"):
        if "." not in site.qualname:
            return None
        owner = site.qualname.rsplit(".", 1)[0]
        canonical: Optional[str] = f"{module}:{owner}.{target[len('self:'):]}"
    else:
        canonical = model.resolve(target, module)
    if canonical in set_valued:
        return str(canonical).split(":", 1)[1]
    return None


@register
class WallClockRule(Rule):
    """DET003 — result paths never read the wall clock."""

    id = "DET003"
    severity = Severity.ERROR
    summary = (
        "wall-clock read (time.time, datetime.now, ...) in a result path; "
        "use monotonic spans for durations or move to obs/"
    )

    def check(self, ctx: FileContext, config: AnalysisConfig) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.imports.resolve(node.func)
            if target not in _WALLCLOCK_TARGETS:
                continue
            if config.allowed_context(self.id, ctx, node) is not None:
                continue
            yield self.finding(
                ctx,
                node,
                f"wall-clock read `{target}` in a result path — results must "
                "depend only on config, seed and code (monotonic "
                "`time.perf_counter` is fine for durations)",
            )
