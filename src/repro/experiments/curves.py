"""ASCII rendering of training curves (the (a)/(b) panels of Figs. 11-13).

The paper's per-setup figures include training-loss and test-accuracy
curves.  Reports are plain text in this reproduction, so curves are
rendered as fixed-height ASCII panels: one row block per configuration,
columns spanning the step budget.  Loss panels use a log scale like the
paper's Fig. 11(a).
"""

from __future__ import annotations

import math

from repro.distsim.result import TrainingResult
from repro.errors import ConfigurationError

__all__ = ["sparkline", "curve_panel", "loss_and_accuracy_panels"]

_TICKS = " .:-=+*#%@"


def sparkline(values: list[float], log_scale: bool = False) -> str:
    """One-line density sparkline of ``values`` (empty-safe)."""
    if not values:
        return ""
    transformed = []
    for value in values:
        if log_scale:
            value = math.log10(max(value, 1e-8))
        transformed.append(value)
    lo, hi = min(transformed), max(transformed)
    span = hi - lo
    if span <= 0:
        return _TICKS[5] * len(values)
    characters = []
    for value in transformed:
        index = int((value - lo) / span * (len(_TICKS) - 1))
        characters.append(_TICKS[index])
    return "".join(characters)


def _resample(steps: list[int], values: list[float], width: int) -> list[float]:
    """Nearest-sample resampling of an irregular curve to ``width`` points."""
    if width < 1:
        raise ConfigurationError("width must be >= 1")
    if not steps:
        return []
    lo, hi = steps[0], steps[-1]
    if hi == lo:
        return [values[0]] * width
    resampled = []
    cursor = 0
    for column in range(width):
        target = lo + (hi - lo) * column / (width - 1 if width > 1 else 1)
        while cursor + 1 < len(steps) and steps[cursor + 1] <= target:
            cursor += 1
        resampled.append(values[cursor])
    return resampled


def curve_panel(
    label: str,
    steps: list[int],
    values: list[float],
    width: int = 60,
    log_scale: bool = False,
) -> str:
    """One labelled sparkline row: ``label |spark| last=value``."""
    if not steps:
        return f"{label:>14s} | (no data)"
    resampled = _resample(list(steps), list(values), width)
    spark = sparkline(resampled, log_scale=log_scale)
    last = values[-1]
    suffix = f"last={last:.4g}"
    return f"{label:>14s} |{spark}| {suffix}"


def loss_and_accuracy_panels(
    results: dict[str, TrainingResult], width: int = 60
) -> list[str]:
    """Fig. 11(a)/(b)-style panels for a set of named runs."""
    lines = ["training loss (log scale):"]
    for label, result in results.items():
        lines.append(
            curve_panel(
                label,
                list(result.loss_steps),
                list(result.loss_values),
                width=width,
                log_scale=True,
            )
        )
    lines.append("test accuracy:")
    for label, result in results.items():
        lines.append(
            curve_panel(
                label,
                list(result.eval_steps),
                list(result.eval_accuracies),
                width=width,
            )
        )
    return lines
