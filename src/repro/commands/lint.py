"""``sync-switch lint`` — the determinism & invariant analyzer."""

from __future__ import annotations

from pathlib import Path

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
        help="exit 1 on any unsuppressed finding or parse error "
        "(the CI gate)",
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
        help="comma-separated rule subset to run (e.g. D001,D003; "
        "default: all registered rules)",
    )


def run(args) -> int:
    """Analyze and print every finding plus the verdict.

    Without ``--check`` the run is informational (exit 0); with it any
    unsuppressed finding or parse error exits 1.
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
    print(render_text(report))
    if args.json:
        target = write_json_report(
            json_payload(report, rules), Path(args.json)
        )
        LOG.info("lint JSON report written to %s", target)
    return 1 if args.check and report.all_findings else 0
