"""What several sub-commands share: the log channel and flag parsers."""

from __future__ import annotations

import logging

__all__ = ["LOG", "add_jobs_argument", "parse_protocols"]

#: Progress/diagnostic channel: INFO and below go to stdout, WARNING
#: and above to stderr (see :func:`repro.cli._configure_logging`).
#: Result output — report tables, run summaries, artifact paths'
#: payloads — stays on plain ``print``.
LOG = logging.getLogger("repro.cli")


def add_jobs_argument(subparser) -> None:
    # Only on subcommands that execute multi-cell batches; ``run`` is a
    # single cell, where a worker pool could never help.
    subparser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for batched experiments "
        "(default: REPRO_JOBS, else 1)",
    )


def parse_protocols(value: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in value.split(",") if part.strip())
