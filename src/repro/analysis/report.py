"""Human and JSON renderings of an analyzer :class:`Report`.

The JSON document is the machine interface: CI uploads it as an artifact
for reviewers and tools.  Its shape is a version field, a flat list of
finding records and a summary block.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from repro.analysis.core import STATUS_ACTIVE, Finding
from repro.analysis.walker import Report

__all__ = ["render_human", "render_json", "write_json"]

_REPORT_VERSION = 2


def render_human(report: Report, verbose: bool = False) -> str:
    """Grouped, greppable text: ``path:line:col: RULE severity: message``.

    Suppressed (non-gating) findings are listed only with
    ``verbose``; the summary always counts them so a quiet report still
    says what was waved through.
    """
    lines: List[str] = []
    current_path = None
    for finding in report.findings:
        if finding.status != STATUS_ACTIVE and not verbose:
            continue
        if finding.path != current_path:
            if current_path is not None:
                lines.append("")
            current_path = finding.path
        lines.append(finding.format())
    if lines:
        lines.append("")
    counts = report.per_rule_counts()
    per_rule = ", ".join(f"{rule}={count}" for rule, count in counts.items())
    summary = (
        f"{report.files_analyzed} files analyzed: "
        f"{len(report.active)} finding(s)"
        + (f" ({per_rule})" if per_rule else "")
        + f", {len(report.suppressed)} suppressed"
    )
    lines.append(summary)
    if report.modules_total:
        lines.append(f"project model: {report.modules_total} modules")
    return "\n".join(lines)


def _finding_record(finding: Finding) -> Dict[str, object]:
    return {
        "rule": finding.rule,
        "severity": finding.severity.value,
        "path": finding.path,
        "line": finding.line,
        "col": finding.col,
        "message": finding.message,
        "snippet": finding.snippet,
        "status": finding.status,
        "justification": finding.justification,
    }


def render_json(report: Report) -> Dict[str, object]:
    return {
        "version": _REPORT_VERSION,
        "paths": list(report.paths),
        "files_analyzed": report.files_analyzed,
        "findings": [_finding_record(f) for f in report.findings],
        "summary": {
            "active": len(report.active),
            "suppressed": len(report.suppressed),
            "per_rule": report.per_rule_counts(),
        },
        "project_model": {
            "modules_total": report.modules_total,
        },
    }


def write_json(report: Report, path: Union[str, Path]) -> None:
    Path(path).write_text(
        json.dumps(render_json(report), indent=2) + "\n", encoding="utf-8"
    )
