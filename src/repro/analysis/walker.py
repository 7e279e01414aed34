"""File discovery, suppression parsing and two-pass analysis orchestration.

This is the driver: it finds the ``.py`` files under the requested paths
(in sorted order — the analyzer eats its own DET002 dogfood), parses each
one, runs every in-scope per-file rule, builds the project model from
the same parsed files (pass 1) and runs the cross-module rules over it
(pass 2), applies ``# repro: noqa`` suppressions, and assembles a
:class:`Report`.  Each file is read, tokenized and parsed exactly once,
and a run reads nothing but the analyzed sources.

Suppression syntax, on the flagged line::

    risky_call()  # repro: noqa DET003 -- wall time feeds the log line only

The rule list and the ``-- reason`` are both mandatory: a suppression
without either does not suppress and is itself reported (NOQA001), and a
suppression that matches no finding is reported as stale (NOQA002) so
dead annotations cannot accumulate.  Project-rule findings route through
the same suppression machinery: NOQA002 is only decided after pass 2.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.config import DEFAULT_CONFIG, AnalysisConfig
from repro.analysis.core import (
    STATUS_ACTIVE,
    STATUS_SUPPRESSED,
    FileContext,
    Finding,
    ProjectRule,
    Rule,
    Severity,
    all_rules,
)
from repro.analysis.project import ProjectModel

__all__ = [
    "Suppression",
    "Report",
    "iter_python_files",
    "analyze_file",
    "analyze_paths",
]

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa\b(?P<rest>.*)$")
_RULE_ID_RE = re.compile(r"[A-Z]+\d+")

#: Directories never descended into during discovery (dot-directories
#: below a requested root are skipped too).
_SKIP_DIRS = {"__pycache__"}


@dataclass
class Suppression:
    """One parsed ``# repro: noqa`` annotation."""

    line: int
    rules: Tuple[str, ...]
    reason: str
    #: Set while matching findings; unused suppressions become NOQA002.
    used: bool = False


@dataclass
class Report:
    """Everything one analyzer run produced."""

    paths: List[str] = field(default_factory=list)
    findings: List[Finding] = field(default_factory=list)
    files_analyzed: int = 0
    #: Modules in the pass-1 model (zero when no project rule ran).
    modules_total: int = 0

    @property
    def active(self) -> List[Finding]:
        return [f for f in self.findings if f.status == STATUS_ACTIVE]

    @property
    def suppressed(self) -> List[Finding]:
        return [f for f in self.findings if f.status == STATUS_SUPPRESSED]

    def per_rule_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.active:
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


def _comment_tokens(source: str) -> List[Tuple[int, str]]:
    """(line, text) of every comment token; strings never match."""
    comments: List[Tuple[int, str]] = []
    reader = io.StringIO(source).readline
    try:
        for token in tokenize.generate_tokens(reader):
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Unparsable files already gate via PARSE001; any comments the
        # tokenizer managed to produce before failing are still honoured.
        pass
    return comments


def parse_suppressions(source: str) -> Tuple[List[Suppression], List[Tuple[int, str]]]:
    """Extract suppressions; malformed ones come back as (line, problem)."""
    suppressions: List[Suppression] = []
    malformed: List[Tuple[int, str]] = []
    for lineno, comment in _comment_tokens(source):
        match = _NOQA_RE.search(comment)
        if match is None:
            continue
        rest = match.group("rest")
        if "--" in rest:
            codes_part, _, reason = rest.partition("--")
        else:
            codes_part, reason = rest, ""
        rules = tuple(_RULE_ID_RE.findall(codes_part))
        reason = reason.strip()
        if not rules:
            malformed.append(
                (lineno, "suppression names no rule ids (e.g. `# repro: noqa DET001 -- why`)")
            )
            continue
        if not reason:
            malformed.append(
                (lineno, "suppression has no `-- reason` justification; it will not suppress")
            )
            continue
        suppressions.append(Suppression(line=lineno, rules=rules, reason=reason))
    return suppressions, malformed


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
    source: str
    ctx: Optional[FileContext] = None
    findings: List[Finding] = field(default_factory=list)
    suppressions: List[Suppression] = field(default_factory=list)
    malformed: List[Tuple[int, str]] = field(default_factory=list)


def _load_file(path: Path) -> _FileEntry:
    """Read + parse one file; a syntax error becomes a PARSE001 finding."""
    display = _display_path(path)
    source = path.read_text(encoding="utf-8")
    entry = _FileEntry(display=display, source=source)
    entry.suppressions, entry.malformed = parse_suppressions(source)
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


def _finalize_file(entry: _FileEntry) -> List[Finding]:
    """Apply suppressions and emit the NOQA hygiene findings for one file."""

    def snippet(line: int) -> str:
        if entry.ctx is not None:
            return entry.ctx.snippet(line)
        lines = entry.source.splitlines()
        return lines[line - 1].strip() if 1 <= line <= len(lines) else ""

    findings = entry.findings
    for lineno, problem in entry.malformed:
        findings.append(
            Finding(
                rule="NOQA001",
                severity=Severity.WARNING,
                path=entry.display,
                line=lineno,
                col=0,
                message=problem,
                snippet=snippet(lineno),
            )
        )
    by_line: Dict[int, List[Suppression]] = {}
    for suppression in entry.suppressions:
        by_line.setdefault(suppression.line, []).append(suppression)
    for finding in findings:
        for suppression in by_line.get(finding.line, []):
            if finding.rule in suppression.rules and finding.rule not in ("NOQA001", "NOQA002"):
                finding.status = STATUS_SUPPRESSED
                finding.justification = suppression.reason
                suppression.used = True
                break
    for suppression in entry.suppressions:
        if not suppression.used:
            findings.append(
                Finding(
                    rule="NOQA002",
                    severity=Severity.WARNING,
                    path=entry.display,
                    line=suppression.line,
                    col=0,
                    message=(
                        f"suppression for {', '.join(suppression.rules)} matched no "
                        "finding on this line — remove the stale annotation"
                    ),
                    snippet=snippet(suppression.line),
                )
            )
    findings.sort(key=Finding.sort_key)
    return findings


def analyze_file(
    path: Path,
    config: AnalysisConfig = DEFAULT_CONFIG,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Run every in-scope per-file rule over one file, suppressions applied.

    Project checks need the whole-program model and are skipped here
    (a project rule's per-file half still runs); use
    :func:`analyze_paths` to run them.
    """
    entry = _load_file(path)
    _run_file_rules(entry, config, list(rules) if rules is not None else all_rules())
    return _finalize_file(entry)


def analyze_paths(
    paths: Sequence[Union[str, Path]],
    config: AnalysisConfig = DEFAULT_CONFIG,
    rules: Optional[Sequence[Rule]] = None,
) -> Report:
    """Analyze every file under ``paths``: both passes, suppressions applied.

    Pass 1 summarizes the :class:`FileContext` each file already got for
    the per-file rules; unparsable files carry PARSE001 and stay out of
    the model.
    """
    report = Report(paths=[str(p) for p in paths])
    active_rules = list(rules) if rules is not None else all_rules()
    project_rules = [rule for rule in active_rules if isinstance(rule, ProjectRule)]

    entries = [_load_file(path) for path in iter_python_files(paths)]
    by_display = {entry.display: entry for entry in entries}
    for entry in entries:
        _run_file_rules(entry, config, active_rules)

    if project_rules:
        model = ProjectModel.build([entry.ctx for entry in entries if entry.ctx is not None])
        report.modules_total = len(model.summaries)
        for rule in project_rules:
            for finding in rule.check_project(model, config):
                target = by_display.get(finding.path)
                if target is not None:
                    target.findings.append(finding)

    for entry in entries:
        report.findings.extend(_finalize_file(entry))
    report.files_analyzed = len(entries)
    report.findings.sort(key=Finding.sort_key)
    return report
