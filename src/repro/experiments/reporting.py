"""Report objects, plain-text rendering and cross-artifact scheduling.

Every figure/table generator returns a :class:`Report`: measured rows,
the paper's corresponding numbers where available, and notes about
substitutions or caveats.  ``render_report`` prints the same rows the
paper's artifact shows, aligned for terminal reading; the benchmark
harness tees these into ``EXPERIMENTS.md``.

Every artifact generator is declared with :func:`declares`: the
``(setup, spec)`` cells it reads are data on the generator, written
once beside it.  Calling a generator trains those cells as one
deduplicated batch, then builds its report from the warm cache.  When
several artifacts are rendered in one invocation (``report all`` or
``report fig2 fig5b ...``), :func:`prefetch_union` submits the *union*
of their declared cells first, so overlapping grids (e.g. Fig. 2 ⊂
Fig. 5b ⊂ Fig. 11) train once and ``--jobs N`` parallelism spans the
whole invocation instead of one artifact at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import wraps

from repro.experiments.runner import ExperimentRunner, RunRequest

__all__ = [
    "Report",
    "declares",
    "prefetch_union",
    "render_report",
]


@dataclass
class Report:
    """One reproduced paper artifact."""

    ident: str
    title: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    paper_rows: list[dict] | None = None
    notes: list[str] = field(default_factory=list)

    def column_values(self, column: str) -> list:
        """All measured values of one column."""
        return [row.get(column) for row in self.rows]


def _format_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _render_table(columns: list[str], rows: list[dict]) -> list[str]:
    table = [[column for column in columns]]
    for row in rows:
        table.append([_format_cell(row.get(column)) for column in columns])
    widths = [
        max(len(line[index]) for line in table)
        for index in range(len(columns))
    ]
    lines = []
    for line_index, line in enumerate(table):
        rendered = "  ".join(
            cell.ljust(width) for cell, width in zip(line, widths)
        )
        lines.append(rendered.rstrip())
        if line_index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return lines


def declares(cells):
    """Declare the ``(setup, spec)`` cells an artifact generator reads.

    The decorated generator keeps its name, docstring and call shape
    ``(runner, **options)``, and carries the declaration as its
    ``cells`` tuple.  Calling it trains those cells as one batch
    (:func:`prefetch_union`), then builds the report from the warm
    cache.  A generator with nothing to train declares ``()``.
    """
    cells = tuple(cells)

    def declare(build):
        @wraps(build)
        def generator(runner: ExperimentRunner, **options) -> Report:
            prefetch_union(runner, [generator])
            return build(runner, **options)

        generator.cells = cells
        return generator

    return declare


def prefetch_union(runner: ExperimentRunner, artifacts) -> int:
    """Warm the cache with the union of several artifacts' cells.

    Expands every declared cell over the runner's seeds, deduplicates
    across artifacts by cache key, and executes the union as one batch
    (parallel when the runner has ``jobs > 1``).  Returns the number of
    unique cells submitted.
    """
    union: dict[str, RunRequest] = {}
    for artifact in artifacts:
        for setup, spec in artifact.cells:
            for seed in range(runner.n_seeds):
                request = RunRequest(setup, spec, seed)
                union.setdefault(request.key(runner.scale), request)
    requests = list(union.values())
    if requests:
        runner.run_batch(requests)
    return len(requests)


def render_report(report: Report) -> str:
    """Human-readable rendering: measured table, paper table, notes."""
    lines = [f"== {report.ident}: {report.title} ==", ""]
    lines.append("measured:")
    lines.extend(_render_table(report.columns, report.rows))
    if report.paper_rows:
        lines.append("")
        lines.append("paper:")
        paper_columns = list(
            dict.fromkeys(
                column
                for row in report.paper_rows
                for column in row
            )
        )
        lines.extend(_render_table(paper_columns, report.paper_rows))
    if report.notes:
        lines.append("")
        for note in report.notes:
            lines.append(f"note: {note}")
    return "\n".join(lines)
