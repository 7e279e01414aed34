"""File discovery and two-pass analysis orchestration.

This is the driver: it finds the ``.py`` files under the requested paths
(in sorted order — the analyzer eats its own DET002 dogfood), parses each
one, runs every in-scope per-file rule, builds the project model from
the same parsed files (pass 1), runs the cross-module rules over it
(pass 2), and assembles a :class:`Report`.  Each file is read and parsed
exactly once, and a run reads nothing but the analyzed sources.

Every finding gates.  The only exemptions are the allowed contexts in
:mod:`repro.analysis.config`, which each rule consults before it reports.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.analysis.config import DEFAULT_CONFIG, AnalysisConfig
from repro.analysis.core import FileContext, Finding, ProjectRule, Rule, Severity, all_rules
from repro.analysis.project import ProjectModel

__all__ = ["Report", "iter_python_files", "analyze_file", "analyze_paths"]

#: Directories never descended into during discovery (dot-directories
#: below a requested root are skipped too).
_SKIP_DIRS = {"__pycache__"}


@dataclass
class Report:
    """Everything one analyzer run produced."""

    paths: List[str] = field(default_factory=list)
    findings: List[Finding] = field(default_factory=list)
    files_analyzed: int = 0
    #: Modules in the pass-1 model (zero when no project rule ran).
    modules_total: int = 0

    def per_rule_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))


def iter_python_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """All ``.py`` files under ``paths``, sorted, caches skipped.

    Only the parts below each requested directory are filtered, so a root
    that itself lives under a dot-directory is still analyzed.
    """
    found: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                parts = candidate.relative_to(path).parts
                if any(part in _SKIP_DIRS or part.startswith(".") for part in parts):
                    continue
                found.append(candidate)
        elif path.is_file():
            found.append(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    # De-duplicate while preserving the sorted-per-root order.
    seen: Dict[Path, None] = {}
    for path in found:
        seen.setdefault(path, None)
    return list(seen)


def _display_path(path: Path) -> str:
    """Stable report spelling: relative to cwd when possible, posix slashes."""
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


@dataclass
class _FileEntry:
    """One discovered file's state while the two passes run."""

    display: str
    ctx: Optional[FileContext] = None
    findings: List[Finding] = field(default_factory=list)


def _load_file(path: Path) -> _FileEntry:
    """Read + parse one file; a syntax error becomes a PARSE001 finding."""
    display = _display_path(path)
    source = path.read_text(encoding="utf-8")
    entry = _FileEntry(display=display)
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        line = error.lineno or 1
        entry.findings.append(
            Finding(
                rule="PARSE001",
                severity=Severity.ERROR,
                path=display,
                line=line,
                col=(error.offset or 1) - 1,
                message=f"file does not parse: {error.msg}",
                snippet="",
            )
        )
        return entry
    entry.ctx = FileContext(path=display, source=source, tree=tree)
    return entry


def _run_file_rules(
    entry: _FileEntry, config: AnalysisConfig, rules: Sequence[Rule]
) -> None:
    if entry.ctx is None:
        return
    for rule in rules:
        if not config.in_scope(rule.id, entry.ctx):
            continue
        entry.findings.extend(rule.check(entry.ctx, config))


def analyze_file(
    path: Path,
    config: AnalysisConfig = DEFAULT_CONFIG,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Run every in-scope per-file rule over one file.

    Project checks need the whole-program model and are skipped here
    (a project rule's per-file half still runs); use
    :func:`analyze_paths` to run them.
    """
    entry = _load_file(path)
    _run_file_rules(entry, config, list(rules) if rules is not None else all_rules())
    return sorted(entry.findings, key=Finding.sort_key)


def analyze_paths(
    paths: Sequence[Union[str, Path]],
    config: AnalysisConfig = DEFAULT_CONFIG,
    rules: Optional[Sequence[Rule]] = None,
) -> Report:
    """Analyze every file under ``paths``: both passes.

    Pass 1 summarizes the :class:`FileContext` each file already got for
    the per-file rules; unparsable files carry PARSE001 and stay out of
    the model.
    """
    report = Report(paths=[str(p) for p in paths])
    active_rules = list(rules) if rules is not None else all_rules()
    project_rules = [rule for rule in active_rules if isinstance(rule, ProjectRule)]

    entries = [_load_file(path) for path in iter_python_files(paths)]
    for entry in entries:
        _run_file_rules(entry, config, active_rules)
        report.findings.extend(entry.findings)

    if project_rules:
        model = ProjectModel.build([entry.ctx for entry in entries if entry.ctx is not None])
        report.modules_total = len(model.summaries)
        for rule in project_rules:
            report.findings.extend(rule.check_project(model, config))

    report.files_analyzed = len(entries)
    report.findings.sort(key=Finding.sort_key)
    return report
