"""Evaluation harness: the paper's experiment setups, figures and tables.

One generator function exists per paper artifact; each declares the
training cells it reads and returns a
:class:`~repro.experiments.reporting.Report` with measured rows, the
paper's numbers where applicable, and caveat notes.  All generators
share an :class:`~repro.experiments.runner.ExperimentRunner`, whose
cache makes overlapping artifacts (e.g. Fig. 2 ⊂ Fig. 5b ⊂ Fig. 11)
reuse the same training runs.
"""

from repro._lazy import LazyTable, lazy_exports

#: Registry used by the CLI and the benchmark suite: artifact name ->
#: generator, imported when the artifact is looked up.
ARTIFACTS = LazyTable(
    {
        "fig2": "repro.experiments.figures:figure_2",
        "fig4a": "repro.experiments.figures:figure_4a",
        "fig4b": "repro.experiments.figures:figure_4b",
        "fig5a": "repro.experiments.figures:figure_5a",
        "fig5b": "repro.experiments.figures:figure_5b",
        "fig8a": "repro.experiments.figures:figure_8a",
        "fig8b": "repro.experiments.figures:figure_8b",
        "fig10": "repro.experiments.endtoend:figure_10",
        "fig11": "repro.experiments.endtoend:figure_11",
        "fig12": "repro.experiments.endtoend:figure_12",
        "fig13": "repro.experiments.endtoend:figure_13",
        "fig14": "repro.experiments.endtoend:figure_14",
        "fig15": "repro.experiments.straggler_fig:figure_15",
        "fig16": "repro.experiments.search_analysis:figure_16",
        "tab1": "repro.experiments.tables:table_1",
        "tab2": "repro.experiments.search_analysis:table_2",
        "tab3": "repro.experiments.tables:table_3",
        "tab4": "repro.experiments.search_analysis:table_4",
        "tab5": "repro.experiments.search_analysis:table_5",
        "tab6": "repro.experiments.search_analysis:table_6",
        "fleet": "repro.experiments.fleet:fleet_artifact",
        "fleet-search": "repro.experiments.fleet:fleet_tuning_artifact",
        "fleet-trace": "repro.experiments.fleet:fleet_trace_artifact",
        "fleet-trace-scale": (
            "repro.experiments.fleet:fleet_trace_scale_artifact"
        ),
    }
)

__all__ = [
    "ARTIFACTS",
    "ExperimentRunner",
    "ExperimentSetup",
    "ParallelExecutor",
    "Report",
    "RunRequest",
    "SETUPS",
    "default_scale",
    "default_seeds",
    "fleet_artifact",
    "fleet_trace_artifact",
    "fleet_trace_scale_artifact",
    "fleet_tuning_artifact",
    "prefetch_union",
    "resolve_jobs",
    "figure_2",
    "figure_4a",
    "figure_4b",
    "figure_5a",
    "figure_5b",
    "figure_8a",
    "figure_8b",
    "figure_10",
    "figure_11",
    "figure_12",
    "figure_13",
    "figure_14",
    "figure_15",
    "figure_16",
    "render_report",
    "table_1",
    "table_2",
    "table_3",
    "table_4",
    "table_5",
    "table_6",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.experiments.endtoend": (
            "figure_10",
            "figure_11",
            "figure_12",
            "figure_13",
            "figure_14",
        ),
        "repro.experiments.executor": (
            "ParallelExecutor",
            "RunRequest",
            "resolve_jobs",
        ),
        "repro.experiments.figures": (
            "figure_2",
            "figure_4a",
            "figure_4b",
            "figure_5a",
            "figure_5b",
            "figure_8a",
            "figure_8b",
        ),
        "repro.experiments.fleet": (
            "fleet_artifact",
            "fleet_trace_artifact",
            "fleet_trace_scale_artifact",
            "fleet_tuning_artifact",
        ),
        "repro.experiments.reporting": (
            "Report",
            "prefetch_union",
            "render_report",
        ),
        "repro.experiments.runner": ("ExperimentRunner",),
        "repro.experiments.search_analysis": (
            "figure_16",
            "table_2",
            "table_4",
            "table_5",
            "table_6",
        ),
        "repro.experiments.setups": (
            "SETUPS",
            "ExperimentSetup",
            "default_scale",
            "default_seeds",
        ),
        "repro.experiments.straggler_fig": ("figure_15",),
        "repro.experiments.tables": ("table_1", "table_3"),
    },
)
