"""Command-line interface: ``sync-switch`` (also ``python -m repro``).

The paper's users "manage their distributed training jobs via the
command line" (Section V); this CLI exposes the same workflows on the
simulator:

* ``sync-switch run`` — train one job under a policy.
* ``sync-switch search`` — offline binary search for the switch timing.
* ``sync-switch report`` — regenerate paper tables/figures; several at
  once (or ``all``) train the union of their declared cells as one
  batch.
* ``sync-switch fleet`` — serve a multi-job stream on a shared worker
  pool and write the fleet summary artifact; ``--tune`` runs the
  amortized in-fleet timing search comparison, ``--scheduler slo``
  serves the stream through the deadline-aware scheduler.
* ``sync-switch lint`` — AST-based determinism & invariant analyzer
  (rules D001–D003, D005, D006); ``--check`` fails on any unsuppressed
  finding.
* ``sync-switch list`` — show setups, artifacts and fleet scenarios.

This module is only the command table: each command's arguments and
handler live in its :mod:`repro.commands` module, imported when that
command is invoked (or when the whole parser is wanted), so starting
``report`` never pays for ``fleet``'s imports.  The full flag reference
lives in ``docs/cli.md`` (CI checks it stays in sync with this parser).
"""

from __future__ import annotations

import argparse
import logging
import sys

from repro._lazy import resolve

__all__ = ["COMMANDS", "build_parser", "main"]

#: Sub-command -> (``--help`` line, module with ``configure(parser)``
#: and ``run(args)``), in ``--help`` order.
COMMANDS = {
    "run": ("train one job under a policy", "repro.commands.run"),
    "search": (
        "offline binary search for the switch timing",
        "repro.commands.search",
    ),
    "report": (
        "regenerate paper artifacts (several at once batch their "
        "union grid; 'all' renders everything)",
        "repro.commands.report",
    ),
    "fleet": (
        "serve a multi-job stream on a shared worker pool",
        "repro.commands.fleet",
    ),
    "lint": (
        "AST-based determinism & invariant analyzer "
        "(rules D001-D003, D005, D006; --check fails on any finding)",
        "repro.commands.lint",
    ),
    "list": (
        "show setups, artifacts and fleet scenarios",
        "repro.commands.listing",
    ),
}

_LOG_LEVELS = ("debug", "info", "warning", "error")


def _configure_logging(level_name: str, quiet: bool) -> tuple:
    """Route ``repro`` logging: INFO->stdout, WARNING+->stderr.

    Binds to the *current* ``sys.stdout``/``sys.stderr`` and returns
    the logger's previous ``(handlers, level, propagate)``, which
    :func:`main` restores when it returns: an in-process invocation
    (tests, notebooks) leaves no handler on a stream that may close,
    and later records propagate as before.
    """
    level = logging.WARNING if quiet else getattr(logging, level_name.upper())
    logger = logging.getLogger("repro")
    previous = (logger.handlers[:], logger.level, logger.propagate)
    logger.handlers.clear()
    logger.setLevel(level)
    logger.propagate = False
    stdout_handler = logging.StreamHandler(sys.stdout)
    stdout_handler.addFilter(lambda record: record.levelno < logging.WARNING)
    stderr_handler = logging.StreamHandler(sys.stderr)
    stderr_handler.setLevel(logging.WARNING)
    logger.addHandler(stdout_handler)
    logger.addHandler(stderr_handler)
    return previous


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The ``sync-switch`` argument parser.

    Every sub-command is listed; ``only`` names the one whose arguments
    are wanted (what :func:`main` needs to parse one invocation), the
    default configures them all.
    """
    parser = argparse.ArgumentParser(
        prog="sync-switch",
        description="Sync-Switch hybrid-synchronization reproduction",
    )
    parser.add_argument(
        "--log-level",
        choices=_LOG_LEVELS,
        default="info",
        help="progress/diagnostic verbosity (before the subcommand; "
        "default info)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress progress output (shorthand for --log-level warning)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, module) in COMMANDS.items():
        subparser = sub.add_parser(name, help=help_line)
        if only in (None, name):
            resolve(module).configure(subparser)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    argv = sys.argv[1:] if argv is None else argv
    # The sub-command is the first argument that names one (the global
    # options before it take no such value); without one argparse
    # reports the error against the full parser.
    invoked = next((arg for arg in argv if arg in COMMANDS), None)
    args = build_parser(only=invoked).parse_args(argv)
    handlers, level, propagate = _configure_logging(args.log_level, args.quiet)
    from repro.errors import ConfigurationError

    try:
        return resolve(COMMANDS[args.command][1]).run(args)
    except ConfigurationError as exc:
        # Input the user can fix (a flag value, a trace or store file)
        # is a usage error; any other failure keeps its traceback.
        logging.getLogger("repro.cli").error("error: %s", exc)
        return 2
    finally:
        logger = logging.getLogger("repro")
        logger.handlers[:] = handlers
        logger.setLevel(level)
        logger.propagate = propagate


if __name__ == "__main__":
    sys.exit(main())
