"""Pass 1 of the project-wide analyzer: the project model.

The per-file rules in :mod:`repro.analysis.rules` see one AST at a time;
the cross-module rule families (SEED, THREAD, SWEEP) need whole-program
context — which function calls which, what a module re-exports, where a
seed value came from.  This module builds that context once per run as a
:class:`ProjectModel`:

* a :class:`ModuleSummary` per analyzed file — symbol table, import
  aliases, a conservative record of every call site, plus the targeted
  "facts" the flow rules consume (RNG construction sites with local
  seed-provenance tags, RNG escapes into module/class scope, thread
  spawns, shared-attribute accesses, ``SWEEP_PARAMS`` tuples, registry
  and scenario declarations, set-returning functions and the loops that
  iterate straight over a call);
* a conservative call graph over canonical ``module:qualname`` ids,
  resolved through import aliases **and** package re-export chains.

Summaries are extracted from the :class:`~repro.analysis.core.FileContext`
the walker already built for the per-file rules, so each file is parsed
once per run.  The model is a pure function of the analyzed sources:
nothing is read from or written to disk.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.core import FileContext

__all__ = [
    "CallSite",
    "IterationCall",
    "RngSite",
    "RngEscape",
    "EmitterCapture",
    "AttrAccess",
    "ClassFacts",
    "FunctionFacts",
    "RegistryEntry",
    "SpecFact",
    "ModuleSummary",
    "ProjectModel",
    "module_name_for",
    "iterables",
    "summarize_module",
    "unwrap_iterable",
]

#: numpy/stdlib generator constructors, plus the repo's own factory.  Raw
#: (import-resolved) spellings; re-exported spellings are canonicalized by
#: :meth:`ProjectModel.resolve` before membership tests.
RNG_CONSTRUCTOR_TARGETS = {
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "random.Random",
    "repro.utils.rng:make_rng",
}

#: The sanctioned seed-derivation root (canonical id).
DERIVE_SEED = "repro.utils.rng:derive_seed"

#: Call terminals that *might* be RNG constructors before canonicalization.
_RNG_CANDIDATE_TERMINALS = {"default_rng", "RandomState", "Random", "make_rng"}

#: Return annotations that make a function set-valued.
_SET_TYPES = {"Set", "FrozenSet", "AbstractSet", "set", "frozenset"}

#: Builtins that keep the traversal order of the iterable they wrap.
_ORDER_PRESERVING_WRAPPERS = ("list", "tuple", "iter", "reversed", "enumerate")

_MUTABLE_CONSTRUCTORS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
_LOCK_TERMINALS = {"Lock", "RLock", "Condition"}
_MUTATING_METHODS = {
    "append",
    "add",
    "extend",
    "insert",
    "update",
    "setdefault",
    "pop",
    "popitem",
    "remove",
    "discard",
    "clear",
    "appendleft",
}


def module_name_for(path: str) -> str:
    """Dotted module name for an analyzed file path.

    ``src/repro/runner/grid.py`` → ``repro.runner.grid`` (the leading
    source root is dropped); files outside a source root keep their
    path-derived name (``tests/test_cli.py`` → ``tests.test_cli``).
    """
    parts = [segment for segment in path.replace("\\", "/").split("/") if segment]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


# ---------------------------------------------------------------------------
# Summary records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CallSite:
    """One call expression: raw target plus location.

    ``target`` is either an import-resolved dotted path
    (``numpy.random.default_rng``), a module-local reference
    (``local:SweepSpec.tasks``), or ``self:<attr>`` for single-hop method
    calls on ``self``.
    """

    target: str
    line: int
    col: int


@dataclass(frozen=True)
class IterationCall:
    """A ``for`` loop or comprehension iterating straight over a call.

    ``target`` is the raw call target as in :class:`CallSite`; it is
    ``None`` for a method called on an arbitrary object
    (``self.topology.neighbors(p)``), where only ``method`` is known.
    """

    target: Optional[str]
    method: Optional[str]
    qualname: str
    line: int
    col: int
    snippet: str


@dataclass(frozen=True)
class RngSite:
    """A candidate RNG-constructor call with local seed-provenance tags.

    ``tags`` records every provenance source found in the seed argument:
    ``param`` (a parameter of the enclosing function — an injection
    point), ``attr`` (a config/instance field), ``call:<target>``
    (deferred to the cross-module fixpoint), ``literal``, ``none``,
    ``unseeded`` (no argument at all) or ``unknown``.
    """

    constructor: str
    qualname: str
    tags: Tuple[str, ...]
    line: int
    col: int
    snippet: str


@dataclass(frozen=True)
class RngEscape:
    """An RNG value bound to state that outlives a run (SEED002 fact)."""

    kind: str  # "module-global" | "class-attribute" | "default-argument"
    constructor: str
    qualname: str
    name: str
    line: int
    col: int
    snippet: str


@dataclass(frozen=True)
class EmitterCapture:
    """A ContextVar emitter captured into long-lived or cross-thread state."""

    kind: str  # "stored-attribute" | "module-global" | "thread-closure"
    qualname: str
    line: int
    col: int
    snippet: str


@dataclass(frozen=True)
class AttrAccess:
    """One touch of a shared mutable instance attribute inside a method."""

    method: str
    attr: str
    mutation: bool
    locked: bool
    line: int
    col: int
    snippet: str


@dataclass(frozen=True)
class ClassFacts:
    """Per-class facts for the thread-safety rules."""

    name: str
    line: int
    col: int
    #: attr -> (line, col, kind) for mutable-container attributes.
    mutable_attrs: Mapping[str, Tuple[int, int, str]]
    lock_attrs: Tuple[str, ...]
    accesses: Tuple[AttrAccess, ...]
    methods: Tuple[str, ...]


@dataclass(frozen=True)
class FunctionFacts:
    """Signature + call/return facts for one function or method."""

    qualname: str
    line: int
    col: int
    params: Tuple[str, ...]
    has_varkw: bool
    calls: Tuple[CallSite, ...]
    #: provenance tags of every `return <expr>` (see RngSite.tags).
    return_tags: Tuple[str, ...]
    #: keys of every all-string-key dict literal in the body (sweep axes).
    axis_keys: Tuple[str, ...]


@dataclass(frozen=True)
class RegistryEntry:
    """One ``SWEEPS`` registry entry: experiment id → runner + params refs."""

    experiment_id: str
    runner: str  # raw dotted/local target
    params: str  # raw dotted/local target of the SWEEP_PARAMS tuple
    line: int
    col: int
    snippet: str


@dataclass(frozen=True)
class SpecFact:
    """One statically visible ``SweepSpec(...)`` construction."""

    experiment_id: Optional[str]
    axes: Tuple[str, ...]
    #: local helper calls whose dict keys also feed the grid (one hop).
    helpers: Tuple[str, ...]
    #: False when the grid expression was not statically resolvable.
    resolvable: bool
    qualname: str
    line: int
    col: int
    snippet: str


@dataclass
class ModuleSummary:
    """Everything pass 2 needs to know about one module, as pure data."""

    path: str
    module: str
    module_aliases: Dict[str, str] = field(default_factory=dict)
    member_aliases: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    functions: Dict[str, FunctionFacts] = field(default_factory=dict)
    classes: Dict[str, ClassFacts] = field(default_factory=dict)
    rng_sites: List[RngSite] = field(default_factory=list)
    rng_escapes: List[RngEscape] = field(default_factory=list)
    emitter_captures: List[EmitterCapture] = field(default_factory=list)
    #: raw targets passed as `target=` to threading.Thread(...).
    thread_targets: List[str] = field(default_factory=list)
    spawns_threads: bool = False
    #: module-level NAME -> tuple of string constants (SWEEP_PARAMS & co).
    string_tuples: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    registry_entries: List[RegistryEntry] = field(default_factory=list)
    spec_facts: List[SpecFact] = field(default_factory=list)
    #: module-level mutable globals: name -> (line, col, kind).
    mutable_globals: Dict[str, Tuple[int, int, str]] = field(default_factory=dict)
    #: unlocked mutations of those globals: (qualname, name, line, col, snippet).
    global_mutations: List[Tuple[str, str, int, int, str]] = field(default_factory=list)
    #: qualnames of functions annotated to return a set or frozenset.
    set_returning: List[str] = field(default_factory=list)
    iteration_calls: List[IterationCall] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Extraction (the only place pass 1 touches an AST)
# ---------------------------------------------------------------------------


def _resolve_target(ctx: FileContext, func: ast.expr) -> Optional[str]:
    """Raw call target: import-resolved dotted, ``local:<name>`` or ``self:<attr>``."""
    resolved = ctx.imports.resolve(func)
    if resolved is not None:
        return resolved
    if isinstance(func, ast.Name):
        return f"local:{func.id}"
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "self"
    ):
        return f"self:{func.attr}"
    return None


def iterables(tree: ast.AST) -> Iterator[ast.expr]:
    """The iterable of every ``for`` loop and comprehension generator."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            yield from (generator.iter for generator in node.generators)


def unwrap_iterable(node: ast.expr) -> ast.expr:
    """The iterable inside ``list(x)``/``tuple(x)``/…, which keep its order."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _ORDER_PRESERVING_WRAPPERS
        and node.args
    ):
        return node.args[0]
    return node


def _is_set_annotation(annotation: Optional[ast.expr]) -> bool:
    """True for ``set``, ``FrozenSet[int]``, ``typing.Set[str]``, ``"Set[int]"``."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return False
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    if isinstance(annotation, ast.Attribute):
        return annotation.attr in _SET_TYPES
    return isinstance(annotation, ast.Name) and annotation.id in _SET_TYPES


def _iteration_calls(ctx: FileContext) -> Iterator[IterationCall]:
    for iterable in iterables(ctx.tree):
        call = unwrap_iterable(iterable)
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        yield IterationCall(
            target=_resolve_target(ctx, func),
            method=func.attr if isinstance(func, ast.Attribute) else None,
            qualname=ctx.qualname(iterable),
            line=iterable.lineno,
            col=iterable.col_offset,
            snippet=ctx.snippet(iterable.lineno),
        )


def _is_mutable_literal(ctx: FileContext, value: ast.expr) -> Optional[str]:
    """Kind string when ``value`` constructs a mutable container, else None."""
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        if name in _MUTABLE_CONSTRUCTORS:
            return name
    return None


def _is_lock_construction(ctx: FileContext, value: ast.expr) -> bool:
    if not isinstance(value, ast.Call):
        return False
    target = ctx.imports.resolve(value.func)
    if target is not None and target.startswith("threading."):
        return target.split(".", 1)[1] in _LOCK_TERMINALS
    func = value.func
    if isinstance(func, ast.Attribute) and func.attr in _LOCK_TERMINALS:
        return True
    return isinstance(func, ast.Name) and func.id in _LOCK_TERMINALS


def _is_get_emitter_call(ctx: FileContext, value: ast.expr) -> bool:
    if not isinstance(value, ast.Call):
        return False
    target = _resolve_target(ctx, value.func)
    return target is not None and target.split(":")[-1].split(".")[-1] == "get_emitter"


def _rng_candidate(target: Optional[str]) -> bool:
    if target is None:
        return False
    terminal = target.split(":")[-1].split(".")[-1]
    return terminal in _RNG_CANDIDATE_TERMINALS


def _provenance_tags(
    ctx: FileContext,
    expr: ast.expr,
    params: Set[str],
    env: Mapping[str, Tuple[str, ...]],
) -> List[str]:
    """Local seed-provenance tags of ``expr`` (see :class:`RngSite`)."""
    tags: List[str] = []
    for node in ast.walk(expr):
        if isinstance(node, ast.Call):
            target = _resolve_target(ctx, node.func)
            if target is not None:
                tags.append(f"call:{target}")
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in params:
                tags.append("param")
            elif node.id in env:
                tags.extend(env[node.id])
            else:
                tags.append(f"global:{node.id}")
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            # A dotted read (`config.seed`, `self._base_seed`) is an
            # injected field unless it resolves to an imported module
            # (those fall through to the Call handling above).
            if ctx.imports.resolve(node) is None:
                tags.append("attr")
        elif isinstance(node, ast.Subscript):
            tags.append("attr")
        elif isinstance(node, ast.Constant):
            if node.value is None:
                tags.append("none")
            elif not isinstance(node.value, str):
                tags.append("literal")
    return tags or ["unknown"]


def _seed_argument(call: ast.Call) -> Optional[ast.expr]:
    """The seed-carrying argument of an RNG-constructor call, if any."""
    if call.args:
        return call.args[0]
    for keyword in call.keywords:
        if keyword.arg == "seed":
            return keyword.value
    return None


def _function_env(
    ctx: FileContext, fn: ast.AST, params: Set[str]
) -> Dict[str, Tuple[str, ...]]:
    """Flow-light local provenance map: name -> tags, in document order."""
    assigns: List[Tuple[int, ast.expr, List[ast.Name]]] = []
    for node in ast.walk(fn):
        if ctx.enclosing_function(node) is not fn:
            continue
        if isinstance(node, ast.Assign):
            names = [t for t in node.targets if isinstance(t, ast.Name)]
            if names:
                assigns.append((node.lineno, node.value, names))
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                assigns.append((node.lineno, node.value, [node.target]))
    env: Dict[str, Tuple[str, ...]] = {}
    for _, value, names in sorted(assigns, key=lambda item: item[0]):
        tags = tuple(_provenance_tags(ctx, value, params, env))
        for name in names:
            if name.id in params:
                continue  # parameters stay injection points
            env[name.id] = tags
    return env


def _return_tags(ctx: FileContext, fn: ast.AST, params: Set[str]) -> List[str]:
    tags: List[str] = []
    for node in ast.walk(fn):
        if not isinstance(node, ast.Return) or node.value is None:
            continue
        if ctx.enclosing_function(node) is not fn:
            continue
        value = node.value
        if isinstance(value, ast.Call):
            target = _resolve_target(ctx, value.func)
            if target is not None:
                tags.append(f"call:{target}")
                continue
        if isinstance(value, ast.Name) and value.id in params:
            tags.append("param")
            continue
        tags.append("other")
    return tags


def _axis_keys(fn: ast.AST) -> List[str]:
    """Keys of every all-string-key dict literal in a function body."""
    keys: List[str] = []
    for node in ast.walk(fn):
        if not isinstance(node, ast.Dict):
            continue
        if not node.keys or not all(
            isinstance(k, ast.Constant) and isinstance(k.value, str) for k in node.keys
        ):
            continue
        keys.extend(k.value for k in node.keys)  # type: ignore[union-attr]
    seen: Dict[str, None] = {}
    for key in keys:
        seen.setdefault(key, None)
    return list(seen)


def _string_tuple(value: ast.expr) -> Optional[Tuple[str, ...]]:
    if isinstance(value, (ast.Tuple, ast.List)) and value.elts:
        items: List[str] = []
        for elt in value.elts:
            if not (isinstance(elt, ast.Constant) and isinstance(elt.value, str)):
                return None
            items.append(elt.value)
        return tuple(items)
    return None


def _extract_registry(ctx: FileContext, summary: ModuleSummary, node: ast.Assign) -> None:
    """Record SWEEPS-style registry entries from a module-level dict literal."""
    if not isinstance(node.value, ast.Dict):
        return
    for key, value in zip(node.value.keys, node.value.values):
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            continue
        if not isinstance(value, ast.Dict):
            continue
        entry: Dict[str, str] = {}
        for inner_key, inner_value in zip(value.keys, value.values):
            if not (isinstance(inner_key, ast.Constant) and isinstance(inner_key.value, str)):
                continue
            if inner_key.value in ("runner", "params"):
                target = _resolve_target(ctx, inner_value)
                if target is None and isinstance(inner_value, ast.Attribute):
                    base = ctx.imports.resolve(inner_value.value)
                    if base is not None:
                        target = f"{base}.{inner_value.attr}"
                if target is not None:
                    entry[inner_key.value] = target
        if "runner" in entry and "params" in entry:
            summary.registry_entries.append(
                RegistryEntry(
                    experiment_id=key.value,
                    runner=entry["runner"],
                    params=entry["params"],
                    line=key.lineno,
                    col=key.col_offset,
                    snippet=ctx.snippet(key.lineno),
                )
            )


def _extract_spec_fact(ctx: FileContext, call: ast.Call) -> Optional[SpecFact]:
    """A :class:`SpecFact` when ``call`` is a ``SweepSpec(...)`` construction."""
    target = _resolve_target(ctx, call.func)
    if target is None or target.split(":")[-1].split(".")[-1] != "SweepSpec":
        return None
    experiment_id: Optional[str] = None
    if call.args and isinstance(call.args[0], ast.Constant) and isinstance(call.args[0].value, str):
        experiment_id = call.args[0].value
    for keyword in call.keywords:
        if keyword.arg == "experiment_id":
            if isinstance(keyword.value, ast.Constant) and isinstance(keyword.value.value, str):
                experiment_id = keyword.value.value
    grid_expr: Optional[ast.expr] = None
    if len(call.args) > 1:
        grid_expr = call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "grid":
            grid_expr = keyword.value
    enclosing = ctx.enclosing_function(call)
    qualname = ctx.qualname(call)
    axes: List[str] = []
    helpers: List[str] = []
    resolvable = True
    if grid_expr is None:
        pass  # empty grid: a plain replication, nothing to validate
    else:
        # Inline ParamGrid({...}) / [{...}] grids resolve directly; a Name
        # or helper call falls back to the enclosing function's dict keys
        # plus one hop into locally-called helpers.
        direct = _grid_axes(grid_expr)
        if direct is not None:
            axes.extend(direct)
        elif enclosing is not None:
            axes.extend(_axis_keys(enclosing))
            for node in ast.walk(enclosing):
                if isinstance(node, ast.Call):
                    helper = _resolve_target(ctx, node.func)
                    if helper is not None and helper.startswith("local:"):
                        helpers.append(helper)
        else:
            resolvable = False
    return SpecFact(
        experiment_id=experiment_id,
        axes=tuple(dict.fromkeys(axes)),
        helpers=tuple(dict.fromkeys(helpers)),
        resolvable=resolvable,
        qualname=qualname,
        line=call.lineno,
        col=call.col_offset,
        snippet=ctx.snippet(call.lineno),
    )


def _grid_axes(expr: ast.expr) -> Optional[List[str]]:
    """Axis names of an inline grid expression, or None when indirect."""
    if isinstance(expr, ast.Call):
        func = expr.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        if name == "ParamGrid" and expr.args and isinstance(expr.args[0], ast.Dict):
            keys = expr.args[0].keys
            if all(isinstance(k, ast.Constant) and isinstance(k.value, str) for k in keys):
                return [k.value for k in keys]  # type: ignore[union-attr]
            return []
        return None
    if isinstance(expr, ast.List):
        axes: List[str] = []
        for elt in expr.elts:
            if isinstance(elt, ast.Dict) and all(
                isinstance(k, ast.Constant) and isinstance(k.value, str) for k in elt.keys
            ):
                axes.extend(k.value for k in elt.keys)  # type: ignore[union-attr]
        return list(dict.fromkeys(axes))
    return None


def summarize_module(ctx: FileContext) -> ModuleSummary:
    """Extract the :class:`ModuleSummary` for one parsed file."""
    tree = ctx.tree
    summary = ModuleSummary(path=ctx.path, module=module_name_for(ctx.path))
    summary.module_aliases = dict(ctx.imports.module_aliases)
    summary.member_aliases = dict(ctx.imports.member_aliases)

    # -- functions: signatures, calls, returns, axis keys -------------------
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        qualname = ctx.qualname(node)
        args = node.args
        named = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if named and named[0] in ("self", "cls"):
            named = named[1:]
        params = set(named)
        env = _function_env(ctx, node, params)
        calls: List[CallSite] = []
        for child in ast.walk(node):
            if isinstance(child, ast.Call) and ctx.enclosing_function(child) is node:
                target = _resolve_target(ctx, child.func)
                if target is not None:
                    calls.append(CallSite(target, child.lineno, child.col_offset))
        if _is_set_annotation(node.returns):
            summary.set_returning.append(qualname)
        summary.functions[qualname] = FunctionFacts(
            qualname=qualname,
            line=node.lineno,
            col=node.col_offset,
            params=tuple(named),
            has_varkw=args.kwarg is not None,
            calls=tuple(calls),
            return_tags=tuple(_return_tags(ctx, node, params)),
            axis_keys=tuple(_axis_keys(node)),
        )
        # RNG constructions as default argument values escape into
        # module-import-time state shared by every later run.
        for default in list(args.defaults) + [d for d in args.kw_defaults if d is not None]:
            if isinstance(default, ast.Call):
                target = _resolve_target(ctx, default.func)
                if _rng_candidate(target):
                    summary.rng_escapes.append(
                        RngEscape(
                            kind="default-argument",
                            constructor=str(target),
                            qualname=qualname,
                            name=node.name,
                            line=default.lineno,
                            col=default.col_offset,
                            snippet=ctx.snippet(default.lineno),
                        )
                    )

    # -- RNG sites with local provenance ------------------------------------
    env_cache: Dict[ast.AST, Dict[str, Tuple[str, ...]]] = {}
    param_cache: Dict[ast.AST, Set[str]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target = _resolve_target(ctx, node.func)
        if not _rng_candidate(target):
            continue
        enclosing = ctx.enclosing_function(node)
        if enclosing is not None and enclosing not in env_cache:
            if isinstance(enclosing, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [
                    a.arg
                    for a in enclosing.args.posonlyargs
                    + enclosing.args.args
                    + enclosing.args.kwonlyargs
                ]
                param_cache[enclosing] = {n for n in names if n not in ("self", "cls")}
            else:
                param_cache[enclosing] = set()
            env_cache[enclosing] = _function_env(ctx, enclosing, param_cache[enclosing])
        params = param_cache.get(enclosing, set()) if enclosing is not None else set()
        env = env_cache.get(enclosing, {}) if enclosing is not None else {}
        seed_arg = _seed_argument(node)
        if seed_arg is None:
            tags: List[str] = ["unseeded"]
        else:
            tags = _provenance_tags(ctx, seed_arg, params, env)
        summary.rng_sites.append(
            RngSite(
                constructor=str(target),
                qualname=ctx.qualname(node),
                tags=tuple(dict.fromkeys(tags)),
                line=node.lineno,
                col=node.col_offset,
                snippet=ctx.snippet(node.lineno),
            )
        )

    # -- module/class-level assignments -------------------------------------
    def record_escape(kind: str, name: str, value: ast.expr, qualname: str) -> None:
        if not isinstance(value, ast.Call):
            return
        target = _resolve_target(ctx, value.func)
        if _rng_candidate(target):
            summary.rng_escapes.append(
                RngEscape(
                    kind=kind,
                    constructor=str(target),
                    qualname=qualname,
                    name=name,
                    line=value.lineno,
                    col=value.col_offset,
                    snippet=ctx.snippet(value.lineno),
                )
            )

    for node in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        for target_node in targets:
            if not isinstance(target_node, ast.Name):
                continue
            name = target_node.id
            record_escape("module-global", name, value, "")
            if _is_get_emitter_call(ctx, value):
                summary.emitter_captures.append(
                    EmitterCapture(
                        kind="module-global",
                        qualname="",
                        line=node.lineno,
                        col=node.col_offset,
                        snippet=ctx.snippet(node.lineno),
                    )
                )
            kind = _is_mutable_literal(ctx, value)
            if kind is not None:
                summary.mutable_globals[name] = (node.lineno, node.col_offset, kind)
            tup = _string_tuple(value)
            if tup is not None:
                summary.string_tuples[name] = tup
            if name == "SWEEPS" and isinstance(node, ast.Assign):
                _extract_registry(ctx, summary, node)

    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
                for target_node in stmt.targets:
                    if isinstance(target_node, ast.Name):
                        record_escape(
                            "class-attribute", target_node.id, stmt.value, node.name
                        )

    # -- thread facts --------------------------------------------------------
    thread_calls: List[ast.Call] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target = _resolve_target(ctx, node.func)
        if target == "threading.Thread" or (
            target is not None and target.endswith(".Thread") and "threading" in target
        ):
            thread_calls.append(node)
    summary.spawns_threads = bool(thread_calls)
    for call in thread_calls:
        for keyword in call.keywords:
            if keyword.arg != "target":
                continue
            target = _resolve_target(ctx, keyword.value)
            if target is not None:
                summary.thread_targets.append(target)
            # THREAD002: a closure target that references an emitter local
            # captured from get_emitter() in the spawning thread's context.
            enclosing = ctx.enclosing_function(call)
            if enclosing is None:
                continue
            captured: Set[str] = set()
            for stmt in ast.walk(enclosing):
                if isinstance(stmt, ast.Assign) and _is_get_emitter_call(ctx, stmt.value):
                    captured.update(
                        t.id for t in stmt.targets if isinstance(t, ast.Name)
                    )
            if not captured:
                continue
            closure: Optional[ast.AST] = None
            if isinstance(keyword.value, ast.Lambda):
                closure = keyword.value
            elif isinstance(keyword.value, ast.Name):
                for stmt in ast.walk(enclosing):
                    if (
                        isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and stmt.name == keyword.value.id
                    ):
                        closure = stmt
            if closure is None:
                continue
            if any(
                isinstance(n, ast.Name) and n.id in captured and isinstance(n.ctx, ast.Load)
                for n in ast.walk(closure)
            ):
                summary.emitter_captures.append(
                    EmitterCapture(
                        kind="thread-closure",
                        qualname=ctx.qualname(call),
                        line=call.lineno,
                        col=call.col_offset,
                        snippet=ctx.snippet(call.lineno),
                    )
                )

    # Stored emitter captures (`self.x = get_emitter()`).
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        if not _is_get_emitter_call(ctx, node.value):
            continue
        for target_node in node.targets:
            if (
                isinstance(target_node, ast.Attribute)
                and isinstance(target_node.value, ast.Name)
                and target_node.value.id == "self"
            ):
                summary.emitter_captures.append(
                    EmitterCapture(
                        kind="stored-attribute",
                        qualname=ctx.qualname(node),
                        line=node.lineno,
                        col=node.col_offset,
                        snippet=ctx.snippet(node.lineno),
                    )
                )

    # -- per-class shared-state facts ----------------------------------------
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            summary.classes[node.name] = _class_facts(ctx, node)

    # -- unlocked module-global mutations ------------------------------------
    if summary.mutable_globals:
        lock_globals = {
            name
            for name, stmt in _module_level_values(tree).items()
            if _is_lock_construction(ctx, stmt)
        }
        for node in ast.walk(tree):
            mutated = _mutated_global(node, summary.mutable_globals)
            if mutated is None:
                continue
            if _under_lock(ctx, node, lock_globals):
                continue
            summary.global_mutations.append(
                (
                    ctx.qualname(node),
                    mutated,
                    node.lineno,
                    node.col_offset,
                    ctx.snippet(node.lineno),
                )
            )

    # -- SweepSpec constructions ---------------------------------------------
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            fact = _extract_spec_fact(ctx, node)
            if fact is not None:
                summary.spec_facts.append(fact)

    summary.iteration_calls = list(_iteration_calls(ctx))
    return summary


def _module_level_values(tree: ast.Module) -> Dict[str, ast.expr]:
    values: Dict[str, ast.expr] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    values[target.id] = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                values[node.target.id] = node.value
    return values


def _mutated_global(node: ast.AST, globals_map: Mapping[str, object]) -> Optional[str]:
    """Name of the module global ``node`` mutates, if any."""
    if isinstance(node, (ast.Assign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
                if target.value.id in globals_map:
                    return target.value.id
    if isinstance(node, ast.Delete):
        for target in node.targets:
            if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
                if target.value.id in globals_map:
                    return target.value.id
    if isinstance(node, ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATING_METHODS
            and isinstance(func.value, ast.Name)
            and func.value.id in globals_map
        ):
            return func.value.id
    return None


def _under_lock(ctx: FileContext, node: ast.AST, lock_names: Set[str]) -> bool:
    """True when ``node`` sits inside ``with <lock>:`` for a known lock name."""
    for ancestor in ctx.ancestors(node):
        if not isinstance(ancestor, (ast.With, ast.AsyncWith)):
            continue
        for item in ancestor.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call):
                expr = expr.func
            if isinstance(expr, ast.Name) and expr.id in lock_names:
                return True
            if (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and expr.attr in lock_names
            ):
                return True
    return False


def _class_facts(ctx: FileContext, node: ast.ClassDef) -> ClassFacts:
    mutable_attrs: Dict[str, Tuple[int, int, str]] = {}
    lock_attrs: List[str] = []
    methods: List[str] = []
    for method in node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        methods.append(method.name)
        for stmt in ast.walk(method):
            value: Optional[ast.expr] = None
            targets: List[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                value, targets = stmt.value, stmt.targets
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                value, targets = stmt.value, [stmt.target]
            if value is None:
                continue
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                if _is_lock_construction(ctx, value):
                    lock_attrs.append(target.attr)
                    continue
                kind = _is_mutable_literal(ctx, value)
                if kind is not None and target.attr not in mutable_attrs:
                    mutable_attrs[target.attr] = (stmt.lineno, stmt.col_offset, kind)

    accesses: List[AttrAccess] = []
    lock_set = set(lock_attrs)
    for method in node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        # __init__/__post_init__ run before any thread can see the object.
        if method.name in ("__init__", "__post_init__"):
            continue
        for stmt in ast.walk(method):
            if not isinstance(stmt, ast.Attribute):
                continue
            if not (isinstance(stmt.value, ast.Name) and stmt.value.id == "self"):
                continue
            if stmt.attr not in mutable_attrs:
                continue
            parent = ctx.parent(stmt)
            mutation = isinstance(stmt.ctx, (ast.Store, ast.Del))
            if (
                isinstance(parent, ast.Subscript)
                and parent.value is stmt
                and isinstance(parent.ctx, (ast.Store, ast.Del))
            ):
                mutation = True
            if (
                isinstance(parent, ast.Attribute)
                and parent.value is stmt
                and parent.attr in _MUTATING_METHODS
            ):
                mutation = True
            accesses.append(
                AttrAccess(
                    method=method.name,
                    attr=stmt.attr,
                    mutation=mutation,
                    locked=_under_lock(ctx, stmt, lock_set),
                    line=stmt.lineno,
                    col=stmt.col_offset,
                    snippet=ctx.snippet(stmt.lineno),
                )
            )
    return ClassFacts(
        name=node.name,
        line=node.lineno,
        col=node.col_offset,
        mutable_attrs=mutable_attrs,
        lock_attrs=tuple(lock_attrs),
        accesses=tuple(accesses),
        methods=tuple(methods),
    )


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


class ProjectModel:
    """The whole-program view pass 2 rules run against."""

    def __init__(self, summaries: Mapping[str, ModuleSummary]) -> None:
        #: path -> summary (the primary index; paths are display paths).
        self.summaries: Dict[str, ModuleSummary] = dict(summaries)
        #: module name -> summary (modules shadowed by duplicates keep first).
        self.modules: Dict[str, ModuleSummary] = {}
        for path in sorted(self.summaries):
            summary = self.summaries[path]
            self.modules.setdefault(summary.module, summary)
        self._call_graph: Optional[Dict[str, Set[str]]] = None

    @classmethod
    def build(cls, contexts: Sequence[FileContext]) -> "ProjectModel":
        """Build a model from the parsed files, keyed by their display paths."""
        return cls({ctx.path: summarize_module(ctx) for ctx in contexts})

    # -- name resolution -----------------------------------------------------

    def resolve(self, raw: str, module: str) -> Optional[str]:
        """Canonical id for a raw call target recorded in ``module``.

        Returns ``"<module>:<qualname>"`` for names resolving into the
        model (through package re-export chains), the raw dotted string
        for external targets (``numpy.random.default_rng``), or ``None``
        for targets that cannot be resolved (``self:<attr>`` without a
        class context).
        """
        if raw.startswith("local:"):
            name = raw[len("local:") :]
            return self._resolve_in_module(module, name)
        if raw.startswith("self:"):
            return None
        return self._resolve_dotted(raw, depth=0)

    def _resolve_in_module(self, module: str, name: str) -> Optional[str]:
        # `local:` names were not import-resolved by ImportMap, so they are
        # module-level definitions (or builtins) in the recording module.
        summary = self.modules.get(module)
        if summary is None:
            return None
        head = name.split(".", 1)[0]
        if head in summary.member_aliases:
            origin, member = summary.member_aliases[head]
            rest = name[len(head) :]
            return self._resolve_dotted(f"{origin}.{member}{rest}", depth=0)
        if head in summary.module_aliases:
            rest = name[len(head) :]
            return self._resolve_dotted(f"{summary.module_aliases[head]}{rest}", depth=0)
        return f"{module}:{name}"

    def _resolve_dotted(self, dotted: str, depth: int) -> Optional[str]:
        if depth > 8:
            return None
        parts = dotted.split(".")
        best: Optional[str] = None
        for end in range(len(parts), 0, -1):
            prefix = ".".join(parts[:end])
            if prefix in self.modules:
                best = prefix
                break
        if best is None:
            return dotted  # external target: keep the raw spelling
        rest = parts[len(best.split(".")) :]
        module = best
        while rest:
            head, tail = rest[0], rest[1:]
            candidate = f"{module}.{head}"
            if candidate in self.modules:
                module, rest = candidate, tail
                continue
            summary = self.modules[module]
            if head in summary.member_aliases:
                origin, member = summary.member_aliases[head]
                return self._resolve_dotted(
                    ".".join([origin, member, *tail]), depth=depth + 1
                )
            return f"{module}:{'.'.join([head, *tail])}"
        return module

    def function(self, canonical: str) -> Optional[FunctionFacts]:
        """The :class:`FunctionFacts` behind a canonical ``module:qual`` id."""
        if ":" not in canonical:
            return None
        module, qual = canonical.split(":", 1)
        summary = self.modules.get(module)
        if summary is None:
            return None
        return summary.functions.get(qual)

    def string_tuple(self, canonical: str) -> Optional[Tuple[str, ...]]:
        if ":" not in canonical:
            return None
        module, name = canonical.split(":", 1)
        summary = self.modules.get(module)
        if summary is None:
            return None
        return summary.string_tuples.get(name)

    @property
    def call_graph(self) -> Dict[str, Set[str]]:
        """canonical caller id -> canonical callee ids (conservative)."""
        if self._call_graph is None:
            graph: Dict[str, Set[str]] = {}
            for summary in self.summaries.values():
                for qual, facts in summary.functions.items():
                    caller = f"{summary.module}:{qual}"
                    callees: Set[str] = set()
                    for call in facts.calls:
                        target = call.target
                        if target.startswith("self:"):
                            # Single-hop method call within the same class.
                            if "." in qual:
                                cls_name = qual.rsplit(".", 1)[0]
                                resolved: Optional[str] = (
                                    f"{summary.module}:{cls_name}.{target[len('self:') :]}"
                                )
                            else:
                                resolved = None
                        else:
                            resolved = self.resolve(target, summary.module)
                        if resolved is not None:
                            callees.add(resolved)
                    graph[caller] = callees
            self._call_graph = graph
        return self._call_graph
