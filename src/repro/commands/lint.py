"""``sync-switch lint`` — the determinism & invariant analyzer."""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.baseline import Baseline, ratchet
from repro.analysis.framework import (
    analyze_paths,
    default_rules,
    repo_root,
    resolve_lint_root,
)
from repro.analysis.report import json_payload, render_text, write_json_report
from repro.commands.common import LOG


def configure(parser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        metavar="PATH",
        help="files or directories to analyze (default: the src/ tree)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="ratchet mode: exit 1 on any finding not in the baseline "
        "and on stale baseline entries (the CI gate)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="ratchet baseline JSON "
        "(default tests/data/lint_baseline.json)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the baseline to tolerate exactly the current "
        "findings (each entry still needs a why-note before commit)",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the machine-readable JSON report here "
        "(the CI artifact)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="IDS",
        help="comma-separated rule subset to run (e.g. D001,D004; "
        "default: all registered rules)",
    )


def run(args) -> int:
    """Analyze, then ratchet against the baseline.

    Without ``--check`` every finding prints (exit 0, informational);
    with it the committed baseline is applied and any new finding,
    stale baseline entry or parse error exits 1.
    """
    try:
        rules = default_rules(
            [part.strip() for part in args.rules.split(",") if part.strip()]
            if args.rules
            else None
        )
    except ValueError as exc:
        LOG.error("error: %s", exc)
        return 2
    paths = (
        [Path(entry) for entry in args.paths]
        if args.paths
        else [repo_root() / "src"]
    )
    missing = [path for path in paths if not path.exists()]
    if missing:
        LOG.error(
            "error: no such path(s): %s",
            ", ".join(str(path) for path in missing),
        )
        return 2
    root = resolve_lint_root(paths, repo_root())
    report = analyze_paths(paths, root, rules)
    baseline_path = (
        Path(args.baseline)
        if args.baseline
        else repo_root() / "tests" / "data" / "lint_baseline.json"
    )
    if args.write_baseline:
        baseline = Baseline.from_findings(
            report.all_findings, note="TODO: justify this entry"
        )
        try:
            target = baseline.save(baseline_path)
        except ValueError as exc:
            LOG.error("error: %s", exc)
            return 2
        LOG.info("lint baseline written to %s", target)
        return 0
    result = None
    if args.check:
        try:
            baseline = Baseline.load(baseline_path)
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            LOG.error("error: bad lint baseline %s: %s", baseline_path, exc)
            return 2
        result = ratchet(report.findings, baseline)
    print(render_text(report, result))
    if args.json:
        target = write_json_report(
            json_payload(report, rules, result, baseline_path),
            Path(args.json),
        )
        LOG.info("lint JSON report written to %s", target)
    if args.check:
        assert result is not None
        return 0 if result.clean and not report.parse_errors else 1
    return 0
