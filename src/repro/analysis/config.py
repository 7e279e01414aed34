"""Scope and allowed-context configuration for the static analyzer.

Every rule encodes a contract that only holds for part of the tree —
wall-clock reads are fine in ``obs/`` (telemetry timestamps *are* wall
time) but not in result paths.  This module pins those boundaries in one
reviewable place.

Two mechanisms, deliberately distinct:

* **Scopes** turn a rule on/off for whole subtrees.  Patterns are
  consecutive path segments (``"repro/p2psim/"``), matched anywhere in
  the analyzed file's path so relative and absolute invocations agree.
* **Allowed contexts** exempt a single function, by file and qualified
  name, with a mandatory written reason.  They are the analyzer's only
  exemption mechanism, for code that is *legitimately* outside the
  contract (order-insensitive reductions, optional-generator defaults):
  config reviewed with the analyzer in one file, not annotations
  scattered in the target files, and they keep matching when lines
  around them move.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.analysis.core import FileContext, path_matches

__all__ = ["Scope", "AllowedContext", "AnalysisConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class Scope:
    """Path-segment include/exclude filter for one rule."""

    include: Tuple[str, ...] = ()
    exclude: Tuple[str, ...] = ()

    def covers(self, parts: Tuple[str, ...]) -> bool:
        if self.include and not any(path_matches(parts, pat) for pat in self.include):
            return False
        return not any(path_matches(parts, pat) for pat in self.exclude)


@dataclass(frozen=True)
class AllowedContext:
    """One function exempted from one rule, with a written justification."""

    path: str
    qualname: str
    reason: str


@dataclass(frozen=True)
class AnalysisConfig:
    """Where each rule applies and which functions are exempt."""

    rule_scopes: Mapping[str, Scope] = field(default_factory=dict)
    allowed_contexts: Mapping[str, Tuple[AllowedContext, ...]] = field(default_factory=dict)

    def scope(self, rule_id: str) -> Scope:
        return self.rule_scopes.get(rule_id, Scope())

    def in_scope(self, rule_id: str, ctx: FileContext) -> bool:
        return self.scope(rule_id).covers(ctx.parts)

    def allowed_context(self, rule_id: str, ctx: FileContext, node: ast.AST) -> Optional[AllowedContext]:
        """The exemption covering ``node``'s enclosing function, if any."""
        return self.allowed_context_at(rule_id, ctx.parts, ctx.qualname(node))

    # Project rules work from module summaries, not live ASTs, so they
    # carry (path parts, qualname) instead of (ctx, node).

    def covers_path(self, rule_id: str, path: str) -> bool:
        """Scope check for a display path (project-rule variant)."""
        parts = tuple(segment for segment in path.replace("\\", "/").split("/") if segment)
        return self.scope(rule_id).covers(parts)

    def allowed_context_at(
        self, rule_id: str, parts: Tuple[str, ...], qualname: str
    ) -> Optional[AllowedContext]:
        """The exemption covering a (path, qualname) pair, if any."""
        contexts = self.allowed_contexts.get(rule_id, ())
        for context in contexts:
            if not path_matches(parts, context.path):
                continue
            if qualname == context.qualname or qualname.startswith(context.qualname + "."):
                return context
        return None

    def allowed_context_for_path(
        self, rule_id: str, path: str, qualname: str
    ) -> Optional[AllowedContext]:
        parts = tuple(segment for segment in path.replace("\\", "/").split("/") if segment)
        return self.allowed_context_at(rule_id, parts, qualname)


def _scopes() -> Dict[str, Scope]:
    simulation = ("repro/",)
    return {
        # Global-RNG use: all simulation code plus the benchmark drivers
        # (their recordings are committed baselines, so a stray global draw
        # would make the perf gate non-reproducible).  obs/ is exempt — it
        # never draws randomness, and keeping it out of scope keeps the
        # rule's message ("inject a Generator") honest.
        "DET001": Scope(
            include=simulation + ("benchmarks/", "examples/"), exclude=("repro/obs/",)
        ),
        # Unordered iteration: sets (hash-randomized for str keys) and
        # filesystem listings (platform-dependent order).  Dict views are
        # deliberately NOT flagged: CPython dicts iterate in insertion
        # order, which is deterministic whenever insertion is — the real
        # hazard this repo has hit is sets and directory scans.
        "DET002": Scope(include=simulation, exclude=("repro/obs/",)),
        # Wall-clock reads in result paths.  obs/ and the telemetry
        # timestamps are out of scope by construction; monotonic duration
        # reads (perf_counter/monotonic) are never flagged anywhere.
        "DET003": Scope(
            include=(
                "repro/p2psim/",
                "repro/experiments/",
                "repro/runner/",
            )
        ),
        # Telemetry guard pattern in hot loops.  The emitter's own package
        # is exempt (it *is* the instrumentation).
        "OBS001": Scope(include=simulation, exclude=("repro/obs/",)),
        # Seed provenance (project-wide taint): every generator built in
        # simulation code must take a seed descending from `derive_seed`
        # or an injected parameter/config field.  The sanctioned factory
        # itself is excluded (it *is* the provenance root), as are the
        # analyzer and telemetry (neither draws randomness for results).
        "SEED001": Scope(
            include=simulation,
            exclude=("repro/utils/rng.py", "repro/analysis/", "repro/obs/"),
        ),
        # RNG escape: generators bound to module globals, class attributes
        # or default-argument values outlive a run and break replayability.
        "SEED002": Scope(
            include=simulation,
            exclude=("repro/utils/rng.py", "repro/analysis/", "repro/obs/"),
        ),
        # Thread-shared mutable state (project-wide): only meaningful in
        # modules that spawn threads; the analyzer itself is excluded.
        "THREAD001": Scope(include=simulation, exclude=("repro/analysis/",)),
        "THREAD002": Scope(include=simulation, exclude=("repro/analysis/",)),
        # Parse failures apply everywhere.
        "PARSE001": Scope(),
    }


def _allowed() -> Dict[str, Tuple[AllowedContext, ...]]:
    return {
        "DET002": (
            AllowedContext(
                path="repro/runner/cache.py",
                qualname="ArtifactCache.__len__",
                reason="order-insensitive count of stored artifacts",
            ),
        ),
        "SEED001": (
            AllowedContext(
                path="repro/queueing/closed.py",
                qualname="ClosedJacksonNetwork.sample_occupancy",
                reason=(
                    "optional-rng convenience default for exploratory "
                    "sampling; no experiment path calls the sampler"
                ),
            ),
        ),
    }


#: The repository's checked-in analyzer policy.
DEFAULT_CONFIG = AnalysisConfig(rule_scopes=_scopes(), allowed_contexts=_allowed())
