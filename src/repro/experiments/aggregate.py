"""Aggregation helpers shared by the figure/table generators."""

from __future__ import annotations

import math

from repro.distsim.result import TrainingResult

__all__ = [
    "accuracy_stats",
    "time_stats",
    "divergence_rate",
    "mean_time_to_accuracy",
    "mean",
    "std",
]


def mean(values: list[float]) -> float | None:
    """Arithmetic mean (None for an empty list)."""
    values = [value for value in values if value is not None]
    if not values:
        return None
    return sum(values) / len(values)


def std(values: list[float]) -> float | None:
    """Population standard deviation (None for an empty list)."""
    values = [value for value in values if value is not None]
    if not values:
        return None
    center = sum(values) / len(values)
    return math.sqrt(sum((value - center) ** 2 for value in values) / len(values))


def accuracy_stats(runs: list[TrainingResult]) -> dict:
    """Mean/std/best of reported accuracy, plus divergence count."""
    accuracies = [
        run.reported_accuracy
        for run in runs
        if not run.diverged and run.reported_accuracy is not None
    ]
    return {
        "accuracy_mean": mean(accuracies),
        "accuracy_std": std(accuracies),
        "accuracy_best": max(accuracies) if accuracies else None,
        "diverged": sum(1 for run in runs if run.diverged),
        "n_runs": len(runs),
    }


def time_stats(runs: list[TrainingResult]) -> dict:
    """Mean/std total training time over non-diverged runs."""
    times = [run.total_time for run in runs if not run.diverged]
    return {"time_mean": mean(times), "time_std": std(times)}


def divergence_rate(runs: list[TrainingResult]) -> float:
    """Fraction of runs that diverged."""
    if not runs:
        return 0.0
    return sum(1 for run in runs if run.diverged) / len(runs)


def mean_time_to_accuracy(
    runs: list[TrainingResult], threshold: float
) -> tuple[float | None, int]:
    """Mean TTA over runs that reached ``threshold`` + how many reached."""
    times = []
    for run in runs:
        if run.diverged:
            continue
        tta = run.time_to_accuracy(threshold)
        if tta is not None:
            times.append(tta)
    return mean(times), len(times)
