"""Text and JSON rendering of ``repro lint`` results.

The text form is one ``file:line: rule: message`` line per finding
(editor-clickable) plus a one-line verdict; the JSON form is the
stable machine schema CI uploads as an artifact::

    {
      "version": 2,
      "root": "...",
      "files_scanned": 87,
      "rules": {"D001": "direct RNG ...", ...},
      "findings": [{"rule", "path", "line", "message"}, ...],
      "summary": {"D001": 2, ...}
    }
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

from repro.analysis.framework import LintReport, Rule

__all__ = ["json_payload", "render_text", "write_json_report"]

JSON_FORMAT_VERSION = 2


def render_text(report: LintReport) -> str:
    """Every finding and parse error, then the gate's verdict."""
    lines = [finding.render() for finding in report.all_findings]
    if report.all_findings:
        lines.append(
            f"lint check FAILED: {len(report.findings)} finding(s), "
            f"{len(report.parse_errors)} parse error(s) in "
            f"{report.files_scanned} file(s)"
        )
    else:
        lines.append(
            f"lint check ok: {report.files_scanned} file(s), 0 finding(s)"
        )
    return "\n".join(lines)


def json_payload(
    report: LintReport, rules: tuple[Rule, ...]
) -> dict[str, object]:
    """The machine-readable report (schema above)."""
    findings = report.all_findings
    return {
        "version": JSON_FORMAT_VERSION,
        "root": str(report.root),
        "files_scanned": report.files_scanned,
        "rules": {rule.id: rule.title for rule in rules},
        "findings": [finding.to_dict() for finding in findings],
        "summary": dict(
            sorted(Counter(finding.rule for finding in findings).items())
        ),
    }


def write_json_report(payload: dict[str, object], path: Path) -> Path:
    """Write the JSON report (creating parent directories)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path
