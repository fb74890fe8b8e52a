"""Search-cost analysis: Tables II/IV/V/VI and Fig. 16.

The paper replays its training logs through 1000 simulated binary
searches per setting.  Here the "training logs" are the runner's cached
switch-timing sweeps; the :class:`ProfileModel` turns them into
per-fraction accuracy/time distributions for the Monte-Carlo replays.

Each artifact declares the sweep cells it replays
(:func:`~repro.experiments.reporting.declares`), so the multi-setup
ones (Table II, Fig. 16) train every setup's full sweep grid as one
deduplicated batch (parallel when the runner has ``jobs > 1``) before
the per-setup Monte-Carlo loops.
"""

from __future__ import annotations

from repro.core.search import ProfileModel, SearchCostSimulator, SearchSetting
from repro.experiments.reporting import Report, declares
from repro.experiments.runner import ExperimentRunner
from repro.experiments.setups import SETUPS, ExperimentSetup, switch_spec

__all__ = [
    "profile_model",
    "cost_simulator",
    "table_2",
    "table_4",
    "table_5",
    "table_6",
    "figure_16",
]

#: Rows of the full per-setup tables (paper Tables IV/V/VI).
_FULL_SETTINGS = (
    SearchSetting(False, 5, 5),
    SearchSetting(False, 4, 4),
    SearchSetting(False, 3, 3),
    SearchSetting(False, 2, 2),
    SearchSetting(False, 1, 1),
    SearchSetting(False, 1, 5),
    SearchSetting(False, 1, 4),
    SearchSetting(False, 1, 3),
    SearchSetting(False, 1, 2),
    SearchSetting(True, 0, 5),
    SearchSetting(True, 0, 4),
    SearchSetting(True, 0, 3),
    SearchSetting(True, 0, 2),
    SearchSetting(True, 0, 1),
)

#: Table II rows: (setup index, setting) selections from the paper.
_TABLE_2_SETTINGS = (
    (1, SearchSetting(False, 5, 5)),
    (1, SearchSetting(False, 3, 3)),
    (1, SearchSetting(True, 0, 3)),
    (2, SearchSetting(False, 5, 5)),
    (2, SearchSetting(False, 4, 4)),
    (2, SearchSetting(True, 0, 4)),
    (3, SearchSetting(False, 5, 5)),
    (3, SearchSetting(False, 3, 3)),
    (3, SearchSetting(True, 0, 1)),
)

#: Paper values for Table II (for side-by-side rendering).
_TABLE_2_PAPER = (
    ("(Exp.1, No, 5, 5)", 12.71, 15.79, 1.97, "100%"),
    ("(Exp.1, No, 3, 3)", 7.62, 9.47, 1.97, "99.2%"),
    ("(Exp.1, Yes, 0, 3)", 4.63, 5.75, 2.59, "100%"),
    ("(Exp.2, No, 5, 5)", 17.86, 44.81, 1.12, "100%"),
    ("(Exp.2, No, 4, 4)", 14.28, 35.83, 1.12, "93.4%"),
    ("(Exp.2, Yes, 0, 4)", 9.05, 22.71, 1.17, "100%"),
    ("(Exp.3, No, 5, 5)", 7.68, 16.54, 1.30, "100%"),
    ("(Exp.3, No, 3, 3)", 4.61, 9.93, 1.30, "100%"),
    ("(Exp.3, Yes, 0, 1)", 0.54, 1.16, 1.87, "100%"),
)


def _sweep_cells(*setup_indices: int):
    """The switch-timing sweep cells (the training logs) of setups."""
    return (
        (SETUPS[index], switch_spec(percent))
        for index in setup_indices
        for percent in SETUPS[index].sweep_percents
    )


def profile_model(
    runner: ExperimentRunner, setup: ExperimentSetup
) -> ProfileModel:
    """Per-fraction (accuracy, time) samples from the sweep logs."""
    sweep = runner.sweep(setup)
    samples: dict[float, list[tuple[float, float]]] = {}
    for percent, runs in sweep.items():
        fraction = percent / 100.0
        samples[fraction] = [
            (
                0.0 if run.diverged else (run.reported_accuracy or 0.0),
                run.total_time,
            )
            for run in runs
        ]
    return ProfileModel(samples)


def cost_simulator(
    runner: ExperimentRunner, setup: ExperimentSetup, beta: float = 0.01
) -> SearchCostSimulator:
    """Monte-Carlo simulator configured like the paper's analysis."""
    return SearchCostSimulator(
        profile_model(runner, setup),
        max_settings=setup.search_max_settings,
        beta=beta,
        seed=20210421,
    )


def _settings_report(
    runner: ExperimentRunner,
    setup: ExperimentSetup,
    settings,
    ident: str,
    n_simulations: int,
    paper_rows=None,
) -> Report:
    simulator = cost_simulator(runner, setup)
    rows = []
    for setting in settings:
        report = simulator.simulate(setting, n_simulations=n_simulations)
        rows.append(
            {
                "setting": setting.label(),
                "search_cost_x": report.search_cost_x,
                "amortized_recurrences": report.amortization_recurrences,
                "effective_training_x": report.effective_training_x,
                "success_probability": report.success_probability,
            }
        )
    return Report(
        ident=ident,
        title=(
            f"Binary-search cost analysis, {setup.describe()} "
            f"(ground truth: {simulator.ground_truth_fraction * 100:g}%)"
        ),
        columns=[
            "setting",
            "search_cost_x",
            "amortized_recurrences",
            "effective_training_x",
            "success_probability",
        ],
        rows=rows,
        paper_rows=paper_rows,
        notes=[
            "setting = (recurring, BSP runs, candidate runs); costs are in "
            "multiples of one static-BSP session",
            f"{n_simulations} simulated searches per setting, beta=0.01",
        ],
    )


@declares(_sweep_cells(1, 2, 3))
def table_2(runner: ExperimentRunner, n_simulations: int = 1000) -> Report:
    """Table II: selected search settings across all three setups."""
    rows = []
    for setup_index, setting in _TABLE_2_SETTINGS:
        setup = SETUPS[setup_index]
        simulator = cost_simulator(runner, setup)
        report = simulator.simulate(setting, n_simulations=n_simulations)
        rows.append(
            {
                "setting": f"(Exp.{setup_index}, "
                f"{setting.label().lstrip('(')}",
                "search_cost_x": report.search_cost_x,
                "amortized_recurrences": report.amortization_recurrences,
                "effective_training_x": report.effective_training_x,
                "success_probability": report.success_probability,
            }
        )
    paper_rows = [
        {
            "setting": label,
            "search_cost_x": cost,
            "amortized_recurrences": amortized,
            "effective_training_x": effective,
            "success_probability": success,
        }
        for label, cost, amortized, effective, success in _TABLE_2_PAPER
    ]
    return Report(
        ident="Table II",
        title="Binary search cost analysis (selected settings)",
        columns=[
            "setting",
            "search_cost_x",
            "amortized_recurrences",
            "effective_training_x",
            "success_probability",
        ],
        rows=rows,
        paper_rows=paper_rows,
        notes=[
            "recurring jobs skip the BSP target runs, cutting cost up to "
            "5X; too few runs per setting reduces success probability",
        ],
    )


@declares(_sweep_cells(1))
def table_4(runner: ExperimentRunner, n_simulations: int = 1000) -> Report:
    """Table IV: full cost/performance analysis for setup 1."""
    return _settings_report(
        runner, SETUPS[1], _FULL_SETTINGS, "Table IV", n_simulations
    )


@declares(_sweep_cells(2))
def table_5(runner: ExperimentRunner, n_simulations: int = 1000) -> Report:
    """Table V: full cost/performance analysis for setup 2."""
    return _settings_report(
        runner, SETUPS[2], _FULL_SETTINGS, "Table V", n_simulations
    )


@declares(_sweep_cells(3))
def table_6(runner: ExperimentRunner, n_simulations: int = 1000) -> Report:
    """Table VI: full cost/performance analysis for setup 3."""
    return _settings_report(
        runner, SETUPS[3], _FULL_SETTINGS, "Table VI", n_simulations
    )


@declares(_sweep_cells(1, 2, 3))
def figure_16(runner: ExperimentRunner, n_simulations: int = 500) -> Report:
    """Fig. 16: search cost vs attempts per setting, three strategies.

    Curves per setup: recurring jobs ``(Yes, 0, r)``, new jobs with
    ``bn = n`` BSP runs ``(No, r, r)``, and new jobs with a single BSP
    run ``(No, 1, r)``.
    """
    rows = []
    for index in (1, 2, 3):
        setup = SETUPS[index]
        simulator = cost_simulator(runner, setup)
        for attempts in (1, 2, 3, 4, 5):
            for strategy, setting in (
                ("recurring", SearchSetting(True, 0, attempts)),
                ("bn=n", SearchSetting(False, attempts, attempts)),
                ("bn=1", SearchSetting(False, 1, attempts)),
            ):
                report = simulator.simulate(
                    setting, n_simulations=n_simulations
                )
                rows.append(
                    {
                        "setup": index,
                        "strategy": strategy,
                        "attempts": attempts,
                        "search_cost_x": report.search_cost_x,
                        "success_probability": report.success_probability,
                        "successful": report.success_probability >= 0.99,
                    }
                )
    return Report(
        ident="Figure 16",
        title="Search cost vs attempts per setting (3 strategies x 3 setups)",
        columns=[
            "setup",
            "strategy",
            "attempts",
            "search_cost_x",
            "success_probability",
            "successful",
        ],
        rows=rows,
        notes=[
            "paper marks a setting successful when it finds the "
            "ground-truth timing with >= 99% probability",
        ],
    )
