"""End-to-end evaluation figures: Figs. 10, 11, 12, 13 and 14.

Each generator declares its grid of ``(setup, spec)`` cells beside it
(:func:`~repro.experiments.reporting.declares`); the grid trains as
one deduplicated batch (parallel when the runner has ``jobs > 1``)
before the rows are assembled from the shared cache.
"""

from __future__ import annotations

from repro.experiments.aggregate import (
    accuracy_stats,
    divergence_rate,
    mean,
    time_stats,
)
from repro.experiments.curves import loss_and_accuracy_panels
from repro.experiments.reporting import Report, declares
from repro.experiments.runner import ExperimentRunner
from repro.experiments.setups import SETUPS, ExperimentSetup, switch_spec

__all__ = [
    "figure_10",
    "figure_11",
    "figure_12",
    "figure_13",
    "figure_14",
]


@declares(
    (SETUPS[index], switch_spec(percent))
    for index in (1, 2, 3)
    for percent in (100.0, 0.0, SETUPS[index].policy_percent)
)
def figure_10(runner: ExperimentRunner) -> Report:
    """Fig. 10: end-to-end time and accuracy across all three setups."""
    rows = []
    for index in (1, 2, 3):
        setup = SETUPS[index]
        bsp = runner.run_many(setup, switch_spec(100.0))
        asp = runner.run_many(setup, switch_spec(0.0))
        sync = runner.run_many(setup, switch_spec(setup.policy_percent))
        bsp_time = time_stats(bsp)["time_mean"]
        for label, runs in (("BSP", bsp), ("ASP", asp), ("Sync-Switch", sync)):
            stats = accuracy_stats(runs) | time_stats(runs)
            failed = divergence_rate(runs) == 1.0
            rows.append(
                {
                    "setup": index,
                    "configuration": label,
                    "accuracy": "FAIL" if failed else stats["accuracy_mean"],
                    "normalized_time": (
                        "FAIL"
                        if failed
                        else (
                            stats["time_mean"] / bsp_time
                            if stats["time_mean"] and bsp_time
                            else None
                        )
                    ),
                    "diverged_runs": stats["diverged"],
                }
            )
    paper_rows = []
    for index in (1, 2, 3):
        setup = SETUPS[index]
        paper_rows.extend(
            [
                {
                    "setup": index,
                    "configuration": "BSP",
                    "accuracy": setup.paper["bsp_accuracy"],
                    "normalized_time": 1.0,
                },
                {
                    "setup": index,
                    "configuration": "ASP",
                    "accuracy": setup.paper["asp_accuracy"] or "FAIL",
                    "normalized_time": setup.paper["normalized_time_asp"]
                    or "FAIL",
                },
                {
                    "setup": index,
                    "configuration": "Sync-Switch",
                    "accuracy": setup.paper["syncswitch_accuracy"],
                    "normalized_time": setup.paper["normalized_time_syncswitch"],
                },
            ]
        )
    return Report(
        ident="Figure 10",
        title="End-to-end comparison (normalized training time, accuracy)",
        columns=[
            "setup",
            "configuration",
            "accuracy",
            "normalized_time",
            "diverged_runs",
        ],
        rows=rows,
        paper_rows=paper_rows,
        notes=[
            "paper: 1.66X-5.13X speedup vs BSP at similar accuracy; up to "
            "3.8% higher accuracy than ASP; ASP fails for setup 3",
        ],
    )


def _detail_cells(setup: ExperimentSetup):
    """The Figs. 11/12/13 grid: the sweep, BSP, ASP and the policy."""
    percents = dict.fromkeys(
        (*setup.sweep_percents, 100.0, 0.0, setup.policy_percent)
    )
    return ((setup, switch_spec(percent)) for percent in percents)


def _setup_detail(
    runner: ExperimentRunner, setup: ExperimentSetup, ident: str
) -> Report:
    """Shared builder for Figs. 11/12/13 (c)+(d) style grids.

    Per switch timing: converged accuracy and total training time, plus
    best-run loss/accuracy curve endpoints for the (a)/(b) panels.
    """
    rows = []
    bsp_runs = runner.run_many(setup, switch_spec(100.0))
    bsp_time = time_stats(bsp_runs)["time_mean"]
    for percent in setup.sweep_percents:
        runs = runner.run_many(setup, switch_spec(percent))
        stats = accuracy_stats(runs) | time_stats(runs)
        failed = divergence_rate(runs) == 1.0
        final_losses = [
            run.final_loss
            for run in runs
            if not run.diverged and run.final_loss is not None
        ]
        rows.append(
            {
                "switch_percent": percent,
                "accuracy": "FAIL" if failed else stats["accuracy_mean"],
                "accuracy_std": None if failed else stats["accuracy_std"],
                "time_s": "FAIL" if failed else stats["time_mean"],
                "normalized_time": (
                    "FAIL"
                    if failed
                    else (
                        stats["time_mean"] / bsp_time
                        if stats["time_mean"] and bsp_time
                        else None
                    )
                ),
                "final_loss": "FAIL" if failed else mean(final_losses),
                "diverged_runs": stats["diverged"],
            }
        )
    # (a)/(b)-panel equivalents: best-run curves for BSP / ASP / policy.
    panel_runs = {}
    for label, percent in (
        ("BSP", 100.0),
        ("ASP", 0.0),
        (f"P ({setup.policy_percent:g}%)", setup.policy_percent),
    ):
        runs = runner.run_many(setup, switch_spec(percent))
        alive = [run for run in runs if not run.diverged]
        if alive:
            best = max(alive, key=lambda run: run.reported_accuracy or 0.0)
            panel_runs[label] = best
        else:
            panel_runs[f"{label} (diverged)"] = runs[0]
    notes = [
        f"paper policy for this setup: switch at {setup.policy_percent:g}%",
        "final_loss is the mean last logged training loss: switching "
        "runs keep a higher training loss than BSP while matching its "
        "test accuracy (paper Fig. 11a, Remark A.2)",
    ]
    notes.extend(loss_and_accuracy_panels(panel_runs))
    return Report(
        ident=ident,
        title=f"Performance detail: {setup.describe()}",
        columns=[
            "switch_percent",
            "accuracy",
            "accuracy_std",
            "time_s",
            "normalized_time",
            "final_loss",
            "diverged_runs",
        ],
        rows=rows,
        notes=notes,
    )


@declares(_detail_cells(SETUPS[1]))
def figure_11(runner: ExperimentRunner) -> Report:
    """Fig. 11: setup 1 detail (accuracy/time/loss vs switch timing)."""
    return _setup_detail(runner, SETUPS[1], "Figure 11")


@declares(_detail_cells(SETUPS[2]))
def figure_12(runner: ExperimentRunner) -> Report:
    """Fig. 12: setup 2 detail."""
    return _setup_detail(runner, SETUPS[2], "Figure 12")


@declares(_detail_cells(SETUPS[3]))
def figure_13(runner: ExperimentRunner) -> Report:
    """Fig. 13: setup 3 detail (divergence below the 50% switch point)."""
    report = _setup_detail(runner, SETUPS[3], "Figure 13")
    report.notes.append(
        "paper: ASP and every switch point before the first learning-rate "
        "decay (50%) diverge on the 16-worker cluster"
    )
    return report


#: Fig. 14 policies: setup index -> its searched switch timing.
_POLICIES = {index: SETUPS[index].policy_percent for index in (1, 2, 3)}


@declares(
    (SETUPS[index], switch_spec(percent))
    for index in (1, 2, 3)
    for percent in (100.0, *_POLICIES.values())
)
def figure_14(runner: ExperimentRunner) -> Report:
    """Fig. 14: cross-examination of policies across setups."""
    rows = []
    for setup_index in (1, 2, 3):
        setup = SETUPS[setup_index]
        bsp_time = time_stats(runner.run_many(setup, switch_spec(100.0)))[
            "time_mean"
        ]
        for policy_index, percent in _POLICIES.items():
            runs = runner.run_many(setup, switch_spec(percent))
            stats = accuracy_stats(runs) | time_stats(runs)
            failed = divergence_rate(runs) == 1.0
            rows.append(
                {
                    "setup": setup_index,
                    "policy": f"P{policy_index} ({percent:g}%)",
                    "accuracy": "FAIL" if failed else stats["accuracy_mean"],
                    "time_s": "FAIL" if failed else stats["time_mean"],
                    "normalized_time": (
                        "FAIL"
                        if failed
                        else (
                            stats["time_mean"] / bsp_time
                            if stats["time_mean"] and bsp_time
                            else None
                        )
                    ),
                }
            )
    return Report(
        ident="Figure 14",
        title="Cross-examination of Sync-Switch policies across setups",
        columns=["setup", "policy", "accuracy", "time_s", "normalized_time"],
        rows=rows,
        paper_rows=[
            {"observation": "policy 2 in setup 1: same accuracy, 1.33X time"},
            {"observation": "policy 3 in setup 1: 3X time of policy 1"},
            {"observation": "policies 1-2 in setup 3: diverged (Fail)"},
            {"observation": "policy 3 in setup 3: matches BSP, saves 46.4%"},
        ],
        notes=[
            "cluster size dominates policy transferability: a policy "
            "searched for a small cluster diverges on a larger one",
        ],
    )
