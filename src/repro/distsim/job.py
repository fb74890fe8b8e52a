"""Job configuration and training plans.

A :class:`JobConfig` is the "training script" the paper assumes deep
learning practitioners provide (Section III): workload, cluster,
initial hyper-parameters.  A :class:`TrainingPlan` is an ordered list
of :class:`Segment` — protocol plus the fraction of the step budget it
covers — which is the object Sync-Switch's policies produce and the
trainer executes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import ConfigurationError

__all__ = ["JobConfig", "Segment", "TrainingPlan", "cumulative_step_targets"]


def cumulative_step_targets(
    fractions: "Sequence[float]", total_steps: int
) -> tuple[int, ...]:
    """Cumulative end step of each share of a ``total_steps`` budget.

    The one rounding rule for where a plan's segments end: target ``i``
    is ``round(cumulative_fraction_i * total_steps)`` (half to even)
    and the final target is pinned to the full budget, so consecutive
    segments never overlap and together exhaust it.
    """
    targets = []
    cumulative = 0.0
    for fraction in fractions:
        cumulative += fraction
        targets.append(int(round(cumulative * total_steps)))
    targets[-1] = total_steps
    return tuple(targets)


@dataclass(frozen=True)
class JobConfig:
    """User-supplied training-job description.

    ``base_lr``/``batch_size``/``momentum`` are the *per-worker* values
    (the paper's ``eta``/``B``/``m``); the configuration policy derives
    protocol-specific values from them (``n*B``/``n*eta`` for BSP).
    """

    model: str
    dataset: str
    total_steps: int
    batch_size: int = 128
    base_lr: float = 0.004
    momentum: float = 0.9
    eval_every: int = 200
    loss_log_every: int = 100
    divergence_threshold: float = 50.0
    seed: int = 0

    def __post_init__(self):
        if self.total_steps <= 0:
            raise ConfigurationError("total_steps must be positive")
        if self.batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        if self.base_lr <= 0:
            raise ConfigurationError("base_lr must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError("momentum must be in [0, 1)")
        if self.eval_every <= 0 or self.loss_log_every <= 0:
            raise ConfigurationError("logging cadences must be positive")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class Segment:
    """One protocol phase of a plan.

    ``fraction`` is the share of the job's step budget this segment
    covers.  ``options`` carries protocol-specific knobs (e.g. the SSP
    staleness bound): keys of the engine's registered ``config_schema``,
    anything else is a :class:`ConfigurationError`.
    """

    protocol: str
    fraction: float
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        # Local import: the engine registry is the single source of
        # protocol names and option keys, and the engines package
        # imports this module.
        from repro.distsim.engines import check_options

        check_options(self.protocol, self.options)  # unknown protocol too
        if not 0.0 <= self.fraction <= 1.0:
            raise ConfigurationError("fraction must be in [0, 1]")


@dataclass(frozen=True)
class TrainingPlan:
    """Ordered protocol segments covering the whole step budget."""

    segments: tuple[Segment, ...]

    def __post_init__(self):
        if not self.segments:
            raise ConfigurationError("a plan needs at least one segment")
        total = sum(segment.fraction for segment in self.segments)
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(
                f"segment fractions must sum to 1, got {total}"
            )

    @classmethod
    def static(cls, protocol: str, **options) -> "TrainingPlan":
        """A single-protocol plan (the paper's static BSP/ASP baselines)."""
        return cls((Segment(protocol, 1.0, options),))

    @classmethod
    def schedule(
        cls,
        protocols: "Sequence[str]",
        fractions: "Sequence[float]",
        options: "Sequence[dict | None] | None" = None,
    ) -> "TrainingPlan":
        """An N-segment plan from aligned protocol/fraction sequences.

        Zero-fraction segments are dropped — those are the degenerate
        boundaries a schedule search pins at an interval endpoint, not
        an error.
        """
        if len(protocols) != len(fractions):
            raise ConfigurationError(
                "protocols and fractions must have the same length, got "
                f"{len(protocols)} and {len(fractions)}"
            )
        if options is not None and len(options) != len(protocols):
            raise ConfigurationError(
                "options must align with protocols when given"
            )
        segments = tuple(
            Segment(
                protocol,
                fraction,
                dict(options[index] or {}) if options is not None else {},
            )
            for index, (protocol, fraction) in enumerate(
                zip(protocols, fractions)
            )
            if fraction > 0.0
        )
        return cls(segments)

    def step_targets(self, total_steps: int) -> tuple[int, ...]:
        """Cumulative step target of each segment (for the two-phase
        plan the first is exactly ``TimingPolicy.switch_step``)."""
        return cumulative_step_targets(
            [segment.fraction for segment in self.segments], total_steps
        )

    def describe(self) -> str:
        """Human-readable plan summary, e.g. ``bsp:6.2% -> asp:93.8%``."""
        return " -> ".join(
            f"{segment.protocol}:{segment.fraction * 100:g}%"
            for segment in self.segments
        )
