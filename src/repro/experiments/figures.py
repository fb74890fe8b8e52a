"""Motivation and policy-design figures: Figs. 2, 4, 5 and 8.

Each generator declares its grid of ``(setup, spec)`` cells beside it
(:func:`~repro.experiments.reporting.declares`); the grid trains as
one deduplicated batch (parallel when the runner has ``jobs > 1``)
before the rows are assembled from the shared cache.
"""

from __future__ import annotations

from repro.experiments.aggregate import accuracy_stats, mean, time_stats
from repro.experiments.reporting import Report, declares
from repro.experiments.runner import ExperimentRunner
from repro.experiments.setups import SETUPS, switch_spec

__all__ = [
    "figure_2",
    "figure_4a",
    "figure_4b",
    "figure_5a",
    "figure_5b",
    "figure_8a",
    "figure_8b",
]


#: Fig. 2 configurations: (label, BSP percent) on setup 1.
_FIG2_CONFIGURATIONS = (
    ("BSP", 100.0),
    ("ASP", 0.0),
    ("Switching 25%", 25.0),
    ("Switching 50%", 50.0),
)


@declares(
    (SETUPS[1], switch_spec(percent)) for _, percent in _FIG2_CONFIGURATIONS
)
def figure_2(runner: ExperimentRunner) -> Report:
    """Fig. 2: benefits of synchronization switching (setup 1).

    BSP, ASP, and BSP->ASP switching at 25% / 50%: converged accuracy
    and total training time.
    """
    rows = []
    for label, percent in _FIG2_CONFIGURATIONS:
        runs = runner.run_many(SETUPS[1], switch_spec(percent))
        stats = accuracy_stats(runs) | time_stats(runs)
        rows.append(
            {
                "configuration": label,
                "accuracy": stats["accuracy_mean"],
                "accuracy_std": stats["accuracy_std"],
                "time_s": stats["time_mean"],
                "diverged": stats["diverged"],
            }
        )
    bsp_time = rows[0]["time_s"]
    for row in rows:
        row["normalized_time"] = (
            row["time_s"] / bsp_time if row["time_s"] and bsp_time else None
        )
    return Report(
        ident="Figure 2",
        title="Benefits of synchronization switching (ResNet32/CIFAR-10, 8 workers)",
        columns=[
            "configuration",
            "accuracy",
            "accuracy_std",
            "time_s",
            "normalized_time",
            "diverged",
        ],
        rows=rows,
        paper_rows=[
            {"configuration": "BSP", "normalized_time": 1.0, "accuracy": 0.919},
            {"configuration": "Switching 50%", "normalized_time": 0.625,
             "accuracy": "~BSP"},
            {"configuration": "Switching 25%", "normalized_time": "<0.625",
             "accuracy": "~BSP"},
            {"configuration": "ASP", "normalized_time": "lowest",
             "accuracy": 0.892},
        ],
        notes=[
            "paper: switching reduces training time by up to 63.5% at "
            "similar converged accuracy",
        ],
    )


@declares(
    (SETUPS[index], {"kind": "static", "protocol": protocol})
    for index in (1, 2, 3)
    for protocol in ("bsp", "asp")
)
def figure_4a(runner: ExperimentRunner) -> Report:
    """Fig. 4a: BSP vs ASP training throughput without stragglers."""
    rows = []
    for index in (1, 2, 3):
        setup = SETUPS[index]
        row = {"setup": index}
        for protocol in ("bsp", "asp"):
            runs = runner.run_many(
                setup, {"kind": "static", "protocol": protocol}
            )
            diverged = all(run.diverged for run in runs)
            throughputs = [
                run.segment_throughput(protocol)
                for run in runs
                if not run.diverged
            ]
            row[f"{protocol}_imgs_per_s"] = (
                "FAIL" if diverged else mean([t for t in throughputs if t])
            )
        if not isinstance(row["asp_imgs_per_s"], str) and not isinstance(
            row["bsp_imgs_per_s"], str
        ):
            row["asp_over_bsp"] = (
                row["asp_imgs_per_s"] / row["bsp_imgs_per_s"]
                if row["bsp_imgs_per_s"]
                else None
            )
        rows.append(row)
    return Report(
        ident="Figure 4(a)",
        title="Training throughput, BSP vs ASP, no injected stragglers",
        columns=["setup", "bsp_imgs_per_s", "asp_imgs_per_s", "asp_over_bsp"],
        rows=rows,
        paper_rows=[
            {"setup": 1, "observation": "ASP well above BSP"},
            {"setup": 2, "observation": "ASP above BSP (smaller margin)"},
            {"setup": 3, "observation": "ASP failed (divergence)"},
        ],
        notes=[
            "paper reports ASP up to 6.59X faster than BSP; ASP training "
            "for setup 3 fails (Table I)",
        ],
    )


#: Fig. 4b straggler scenarios: (label, stragglers, latency in s).
_FIG4B_SCENARIOS = (
    ("0 + 0ms", 0, 0.0),
    ("1 + 10ms", 1, 0.010),
    ("2 + 10ms", 2, 0.010),
    ("1 + 30ms", 1, 0.030),
    ("2 + 30ms", 2, 0.030),
)


def _scenario_spec(protocol: str, count: int, latency: float) -> dict:
    spec = {"kind": "static", "protocol": protocol, "steps_scale": 0.5}
    if count:
        spec["stragglers"] = {
            "n": count,
            "latency": latency,
            "permanent": True,
        }
    return spec


@declares(
    (SETUPS[1], _scenario_spec(protocol, count, latency))
    for _, count, latency in _FIG4B_SCENARIOS
    for protocol in ("bsp", "asp")
)
def figure_4b(runner: ExperimentRunner) -> Report:
    """Fig. 4b: throughput under injected stragglers (setup 1).

    Scenarios: {0 stragglers, 1+10ms, 2+10ms, 1+30ms, 2+30ms} with the
    paper's emulated per-packet latency on the straggling workers.
    """
    rows = []
    for label, count, latency in _FIG4B_SCENARIOS:
        row = {"scenario": label}
        for protocol in ("bsp", "asp"):
            runs = runner.run_many(
                SETUPS[1], _scenario_spec(protocol, count, latency)
            )
            throughputs = [
                run.segment_throughput(protocol)
                for run in runs
                if not run.diverged
            ]
            row[f"{protocol}_imgs_per_s"] = mean(
                [t for t in throughputs if t]
            )
        bsp, asp = row["bsp_imgs_per_s"], row["asp_imgs_per_s"]
        row["asp_over_bsp"] = asp / bsp if asp and bsp else None
        rows.append(row)
    return Report(
        ident="Figure 4(b)",
        title="Throughput with transient stragglers (setup 1)",
        columns=["scenario", "bsp_imgs_per_s", "asp_imgs_per_s", "asp_over_bsp"],
        rows=rows,
        notes=[
            "paper: BSP throughput collapses with stragglers while ASP is "
            "barely affected (up to 6.59X gap)",
        ],
    )


#: Fig. 5a synchronicity orders: (label, spec) on setup 1.
_FIG5A_ORDERS = (
    ("BSP", switch_spec(100.0)),
    ("BSP->ASP", switch_spec(50.0)),
    ("ASP->BSP", {"kind": "reversed", "percent": 50.0}),
    ("ASP", switch_spec(0.0)),
)


@declares((SETUPS[1], spec) for _, spec in _FIG5A_ORDERS)
def figure_5a(runner: ExperimentRunner) -> Report:
    """Fig. 5a: order of synchronicity (BSP, BSP->ASP, ASP->BSP, ASP)."""
    rows = []
    for label, spec in _FIG5A_ORDERS:
        runs = runner.run_many(SETUPS[1], spec)
        stats = accuracy_stats(runs)
        rows.append(
            {
                "order": label,
                "accuracy": stats["accuracy_mean"],
                "accuracy_std": stats["accuracy_std"],
                "diverged": stats["diverged"],
            }
        )
    return Report(
        ident="Figure 5(a)",
        title="Impact of synchronicity order (setup 1, 50/50 split)",
        columns=["order", "accuracy", "accuracy_std", "diverged"],
        rows=rows,
        paper_rows=[
            {"order": "BSP", "accuracy": "~0.92"},
            {"order": "BSP->ASP", "accuracy": "~0.92 (matches BSP)"},
            {"order": "ASP->BSP", "accuracy": "lower, high variance"},
            {"order": "ASP", "accuracy": "~0.89"},
        ],
        notes=[
            "paper: BSP->ASP outperforms ASP->BSP; early stale gradients "
            "are the harmful ones (Section IV-A, Remark A.3)",
        ],
    )


@declares(
    (SETUPS[1], switch_spec(percent)) for percent in SETUPS[1].sweep_percents
)
def figure_5b(runner: ExperimentRunner) -> Report:
    """Fig. 5b: converged accuracy vs BSP proportion (the knee curve)."""
    rows = []
    for percent in SETUPS[1].sweep_percents:
        runs = runner.run_many(SETUPS[1], switch_spec(percent))
        stats = accuracy_stats(runs)
        rows.append(
            {
                "bsp_percent": percent,
                "accuracy": stats["accuracy_mean"],
                "accuracy_std": stats["accuracy_std"],
                "diverged": stats["diverged"],
            }
        )
    return Report(
        ident="Figure 5(b)",
        title="Converged accuracy vs percentage of BSP training (setup 1)",
        columns=["bsp_percent", "accuracy", "accuracy_std", "diverged"],
        rows=rows,
        notes=[
            "paper: accuracy rises with BSP percentage then plateaus at a "
            "knee; training longer with BSP does not help beyond it",
        ],
    )


def _batch_spec(batch: int) -> dict:
    return {
        "kind": "custom_static",
        "protocol": "asp",
        "options": {"batch_size": batch},
        "steps_scale": 0.25,
    }


@declares((SETUPS[1], _batch_spec(batch)) for batch in (1024, 128))
def figure_8a(runner: ExperimentRunner) -> Report:
    """Fig. 8a: ASP throughput with per-worker batch 1024 vs 128."""
    rows = []
    for batch in (1024, 128):
        runs = runner.run_many(SETUPS[1], _batch_spec(batch))
        throughputs = [
            run.segment_throughput("asp") for run in runs if not run.diverged
        ]
        rows.append(
            {
                "asp_batch_size": batch,
                "imgs_per_s": mean([t for t in throughputs if t]),
            }
        )
    ratio = (
        rows[0]["imgs_per_s"] / rows[1]["imgs_per_s"]
        if rows[0]["imgs_per_s"] and rows[1]["imgs_per_s"]
        else None
    )
    return Report(
        ident="Figure 8(a)",
        title="Batch-size scaling after switching (setup 1)",
        columns=["asp_batch_size", "imgs_per_s"],
        rows=rows,
        notes=[
            f"measured 1024/128 throughput ratio: "
            f"{ratio:.2f}X" if ratio else "ratio unavailable",
            "paper: up to 2X throughput difference between batch sizes "
            "(Section IV-C)",
        ],
    )


#: Fig. 8b momentum handling variants after the switch.
_FIG8B_MODES = (
    "baseline", "zero", "fixed-scaled", "nonlinear-ramp", "linear-ramp"
)


def _mode_spec(mode: str) -> dict:
    return switch_spec(SETUPS[1].policy_percent, momentum_mode=mode)


@declares((SETUPS[1], _mode_spec(mode)) for mode in _FIG8B_MODES)
def figure_8b(runner: ExperimentRunner) -> Report:
    """Fig. 8b: momentum handling after the switch (five variants)."""
    rows = []
    for mode in _FIG8B_MODES:
        runs = runner.run_many(SETUPS[1], _mode_spec(mode))
        stats = accuracy_stats(runs)
        rows.append(
            {
                "momentum_mode": mode,
                "accuracy": stats["accuracy_mean"],
                "accuracy_std": stats["accuracy_std"],
                "diverged": stats["diverged"],
            }
        )
    return Report(
        ident="Figure 8(b)",
        title="Momentum scaling after switching (setup 1, P1 timing)",
        columns=["momentum_mode", "accuracy", "accuracy_std", "diverged"],
        rows=rows,
        paper_rows=[
            {"momentum_mode": "baseline", "observation": "best (keep momentum)"},
            {"momentum_mode": "others", "observation": "up to 5% lower accuracy"},
        ],
        notes=[
            "paper keeps the BSP momentum after switching; all rescaling "
            "variants converge lower (Fig. 8b)",
        ],
    )
