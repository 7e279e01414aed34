"""Determinism static analyzer (``repro analyze``).

An AST-level linter that encodes this repository's reproducibility
contract as enforceable rules — the static counterpart to the dynamic
determinism suite and the benchmark-regression gate:

=========  ==============================================================
DET001     randomness only via injected generators, never global RNG state
DET002     set / filesystem iteration feeding results must be sorted
DET003     no wall-clock reads in result paths (monotonic spans are fine)
OBS001     hot-loop telemetry guarded by the branch-on-local-bool pattern
SEED001    generator seeds descend from derive_seed or an injected value
SEED002    generators never escape into globals/class attrs/defaults
THREAD001  thread-shared mutable containers locked on every access path
THREAD002  ContextVar emitters resolved in-thread, not captured pre-start
PARSE001   unparsable files gate the build
=========  ==============================================================

The SEED and THREAD families, and DET002's cross-module half, are
*project rules*: they run against a whole-program model (import aliases,
re-export chains, per-function return provenance, flow closures) built
in a first pass from the same parsed files — see
:mod:`repro.analysis.project` and :mod:`repro.analysis.flow`.  A run is a
pure function of the analyzed sources: it keeps no state between runs.

Every finding gates.  Per-function policy exemptions live in
:mod:`repro.analysis.config` as allowed contexts with written
justifications; there is no inline suppression.  The sweep contract
(``SWEEP_PARAMS`` against each ``run_point``, scenario axes against
their experiment) is checked at run time by the test suite, not here.
"""

from repro.analysis.config import DEFAULT_CONFIG, AllowedContext, AnalysisConfig, Scope
from repro.analysis.core import (
    FileContext,
    Finding,
    ProjectRule,
    Rule,
    Severity,
    all_rules,
    select_rules,
)
from repro.analysis.project import ModuleSummary, ProjectModel
from repro.analysis.report import render_human, render_json, write_json
from repro.analysis.walker import Report, analyze_file, analyze_paths, iter_python_files

# Importing the rules package registers every shipped rule.
from repro.analysis import rules as _rules  # noqa: F401

__all__ = [
    "AnalysisConfig",
    "AllowedContext",
    "Scope",
    "DEFAULT_CONFIG",
    "FileContext",
    "Finding",
    "Rule",
    "ProjectRule",
    "Severity",
    "all_rules",
    "select_rules",
    "ModuleSummary",
    "ProjectModel",
    "Report",
    "analyze_file",
    "analyze_paths",
    "iter_python_files",
    "render_human",
    "render_json",
    "write_json",
]
