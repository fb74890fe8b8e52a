"""Tables I and III: end-to-end summary and framework overhead."""

from __future__ import annotations

from repro.distsim.overheads import ProvisioningModel
from repro.experiments.aggregate import (
    accuracy_stats,
    divergence_rate,
    mean_time_to_accuracy,
    time_stats,
)
from repro.experiments.reporting import Report, declares
from repro.experiments.runner import ExperimentRunner
from repro.experiments.setups import SETUPS, switch_spec

__all__ = ["table_1", "table_3", "TTA_THRESHOLD_FACTOR"]

#: TTA threshold = factor * mean BSP converged accuracy.  The paper uses
#: the BSP mean itself; the simulator's per-run accuracy noise is larger
#: than the paper's, so a 0.5% grace keeps TTA defined for runs that
#: converge marginally below the BSP mean (documented in EXPERIMENTS.md).
TTA_THRESHOLD_FACTOR = 0.995


@declares(
    (SETUPS[index], switch_spec(percent))
    for index in (1, 2, 3)
    for percent in (100.0, 0.0, SETUPS[index].policy_percent)
)
def table_1(runner: ExperimentRunner) -> Report:
    """Table I: setups, policies, throughput and TTA speedups."""
    rows = []
    for index in (1, 2, 3):
        setup = SETUPS[index]
        bsp = runner.run_many(setup, switch_spec(100.0))
        asp = runner.run_many(setup, switch_spec(0.0))
        sync = runner.run_many(setup, switch_spec(setup.policy_percent))
        bsp_time = time_stats(bsp)["time_mean"]
        asp_failed = divergence_rate(asp) == 1.0
        asp_time = None if asp_failed else time_stats(asp)["time_mean"]
        sync_time = time_stats(sync)["time_mean"]

        bsp_accuracy = accuracy_stats(bsp)["accuracy_mean"]
        threshold = TTA_THRESHOLD_FACTOR * bsp_accuracy
        tta_bsp, _ = mean_time_to_accuracy(bsp, threshold)
        tta_sync, _ = mean_time_to_accuracy(sync, threshold)

        rows.append(
            {
                "setup": index,
                "workload": setup.workload,
                "cluster": f"{setup.n_workers} x K80 (sim)",
                "policy": f"P{index}: ([BSP, ASP], {setup.policy_percent:g}%)",
                "speedup_vs_asp": (
                    "failed"
                    if asp_failed
                    else (asp_time / sync_time if sync_time else None)
                ),
                "speedup_vs_bsp": (
                    bsp_time / sync_time if sync_time and bsp_time else None
                ),
                "tta_speedup_vs_bsp": (
                    tta_bsp / tta_sync if tta_bsp and tta_sync else None
                ),
            }
        )
    paper_rows = [
        {
            "setup": index,
            "policy": f"P{index}: ([BSP, ASP], {SETUPS[index].policy_percent:g}%)",
            "speedup_vs_asp": SETUPS[index].paper["throughput_vs_asp"]
            or "failed",
            "speedup_vs_bsp": SETUPS[index].paper["speedup_vs_bsp"],
            "tta_speedup_vs_bsp": SETUPS[index].paper["tta_speedup_vs_bsp"],
        }
        for index in (1, 2, 3)
    ]
    return Report(
        ident="Table I",
        title="Experiment setups, timing policies and speedups",
        columns=[
            "setup",
            "workload",
            "cluster",
            "policy",
            "speedup_vs_asp",
            "speedup_vs_bsp",
            "tta_speedup_vs_bsp",
        ],
        rows=rows,
        paper_rows=paper_rows,
        notes=[
            "speedups are total-training-time ratios for the same step "
            "budget (the paper's 'throughput speedup')",
            f"TTA threshold: {TTA_THRESHOLD_FACTOR} x mean BSP converged "
            "accuracy per setup",
        ],
    )


@declares([(SETUPS[1], switch_spec(SETUPS[1].policy_percent))])
def table_3(runner: ExperimentRunner) -> Report:
    """Table III: initialization and switching overhead.

    Model values are produced by the calibrated provisioning model at
    scale 1 (the paper's absolute seconds); the switch-overhead share of
    total training time is measured from actual Sync-Switch runs.
    """
    rows = []
    for n_workers in (8, 16):
        for parallel, label in ((False, "Sequential"), (True, "Parallel (Ours)")):
            model = ProvisioningModel(parallel=parallel)
            init = model.init_time(n_workers)
            switch = model.switch_time(n_workers)
            rows.append(
                {
                    "cluster": f"{n_workers} K80",
                    "actuator": label,
                    "init_s": init,
                    "switching_s": switch,
                    "total_s": init + switch,
                }
            )
    # Measured share of switching overhead in an actual P1 run.
    sync = runner.run_many(SETUPS[1], switch_spec(SETUPS[1].policy_percent))
    shares = [
        run.total_overhead / run.total_time
        for run in sync
        if not run.diverged and run.total_time > 0
    ]
    share = sum(shares) / len(shares) if shares else None
    return Report(
        ident="Table III",
        title="Sync-Switch overhead (initialization + protocol switching)",
        columns=["cluster", "actuator", "init_s", "switching_s", "total_s"],
        rows=rows,
        paper_rows=[
            {"cluster": "8 K80", "actuator": "Sequential", "init_s": 157,
             "switching_s": 90, "total_s": 247},
            {"cluster": "8 K80", "actuator": "Parallel (Ours)", "init_s": 90,
             "switching_s": 36, "total_s": 126},
            {"cluster": "16 K80", "actuator": "Sequential", "init_s": 268,
             "switching_s": 165, "total_s": 433},
            {"cluster": "16 K80", "actuator": "Parallel (Ours)", "init_s": 128,
             "switching_s": 53, "total_s": 181},
        ],
        notes=[
            (
                f"measured switch overhead in P1 runs: {share * 100:.1f}% of "
                "total training time"
                if share is not None
                else "no overhead share measured"
            ),
            "paper: switching overhead as low as 36 s (~1.7% of training "
            "time), growing sub-linearly with cluster size",
        ],
    )
