"""Structure tests for the end-to-end figure generators (tiny scale).

They read through the session's ``tiny_runner`` cache, so the cells
Table I and Fig. 2 trained are not trained again here.
"""

from repro.experiments.endtoend import figure_10, figure_13, figure_14
from repro.experiments.figures import figure_5b
from repro.experiments.search_analysis import profile_model
from repro.experiments.setups import SETUPS


def test_figure_10_covers_three_setups(tiny_runner):
    report = figure_10(tiny_runner)
    setups = report.column_values("setup")
    assert setups == [1, 1, 1, 2, 2, 2, 3, 3, 3]
    labels = {row["configuration"] for row in report.rows}
    assert labels == {"BSP", "ASP", "Sync-Switch"}


def test_figure_10_asp_fails_on_setup_3(tiny_runner):
    report = figure_10(tiny_runner)
    asp3 = next(
        row
        for row in report.rows
        if row["setup"] == 3 and row["configuration"] == "ASP"
    )
    assert asp3["accuracy"] == "FAIL"


def test_figure_10_syncswitch_faster_than_bsp(tiny_runner):
    report = figure_10(tiny_runner)
    for setup in (1, 2, 3):
        sync = next(
            row
            for row in report.rows
            if row["setup"] == setup and row["configuration"] == "Sync-Switch"
        )
        assert sync["normalized_time"] != "FAIL"
        assert sync["normalized_time"] < 1.0


def test_figure_13_marks_divergence(tiny_runner):
    report = figure_13(tiny_runner)
    asp_row = next(
        row for row in report.rows if row["switch_percent"] == 0.0
    )
    assert asp_row["accuracy"] == "FAIL"
    bsp_row = next(
        row for row in report.rows if row["switch_percent"] == 100.0
    )
    assert bsp_row["accuracy"] != "FAIL"


def test_figure_14_grid_is_complete(tiny_runner):
    report = figure_14(tiny_runner)
    assert len(report.rows) == 9  # 3 policies x 3 setups
    policies = {row["policy"] for row in report.rows}
    assert policies == {"P1 (6.25%)", "P2 (12.5%)", "P3 (50%)"}


def test_figure_5b_grid_matches_setup_sweep(tiny_runner):
    report = figure_5b(tiny_runner)
    assert tuple(report.column_values("bsp_percent")) == SETUPS[1].sweep_percents


def test_profile_model_built_from_sweep(tiny_runner):
    model = profile_model(tiny_runner, SETUPS[3])
    fractions = model.fractions
    assert 0.0 in fractions and 1.0 in fractions
    # ASP runs diverged -> accuracy 0 recorded at fraction 0
    assert model.mean_accuracy(0.0) < model.mean_accuracy(1.0)
