"""Timing policy: when to switch between the scheduled protocols.

The offline timing policy for the paper's two-phase plan is a single
number — the fraction of the step budget trained with the precise
protocol before switching (paper Table I: 6.25% / 12.5% / 50% for the
three setups).  It is found by the offline binary search
(:mod:`repro.core.search.binary_search`) for new jobs and reused
directly for recurring ones.

N-segment schedules generalise the single number to a per-segment
fraction vector (summing to 1): :meth:`TimingPolicy.for_schedule`
builds one, :meth:`TimingPolicy.build_plan` materialises it against a
:class:`~repro.core.policies.protocol.ProtocolSchedule`, and
:meth:`TimingPolicy.segment_boundaries` exposes the exact step
boundaries the trainer uses (cumulative round-half-to-even, final
segment pinned to the full budget — non-overlapping and
budget-exhausting by construction).  A policy without a fraction
vector is the two-phase special case and builds plans exactly as it
always has.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.policies.config import ConfigurationPolicy
from repro.core.policies.protocol import ProtocolPolicy, ProtocolSchedule
from repro.distsim.job import (
    JobConfig,
    Segment,
    TrainingPlan,
    cumulative_step_targets,
)
from repro.errors import ConfigurationError

__all__ = ["TimingPolicy"]


@dataclass(frozen=True)
class TimingPolicy:
    """Switch point(s) plus provenance.

    ``fractions`` is ``None`` for the classic two-phase policy (the
    single ``switch_fraction`` splits the budget) or the full
    per-segment fraction vector of an N-segment schedule, in which
    case ``switch_fraction`` equals its first entry (the precise
    phase's share).
    """

    switch_fraction: float
    source: str = "manual"
    fractions: tuple[float, ...] | None = None

    def __post_init__(self):
        if not 0.0 <= self.switch_fraction <= 1.0:
            raise ConfigurationError("switch_fraction must be in [0, 1]")
        if self.fractions is None:
            return
        fractions = tuple(float(value) for value in self.fractions)
        object.__setattr__(self, "fractions", fractions)
        if not fractions:
            raise ConfigurationError("fractions must not be empty")
        for value in fractions:
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    "segment fractions must be in [0, 1]"
                )
        total = sum(fractions)
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(
                f"segment fractions must sum to 1, got {total}"
            )
        if abs(fractions[0] - self.switch_fraction) > 1e-9:
            raise ConfigurationError(
                "switch_fraction must equal the first segment fraction"
            )

    @classmethod
    def for_schedule(
        cls, fractions, source: str = "schedule"
    ) -> "TimingPolicy":
        """A timing policy carrying a full per-segment fraction vector."""
        values = tuple(float(value) for value in fractions)
        first = values[0] if values else 0.0
        return cls(first, source=source, fractions=values)

    @property
    def switch_percent(self) -> float:
        """Switch point in percent (paper notation)."""
        return self.switch_fraction * 100.0

    def switch_step(self, total_steps: int) -> int:
        """Absolute step at which the first switch happens."""
        return int(round(self.switch_fraction * total_steps))

    def plan_fractions(self) -> tuple[float, ...]:
        """Per-segment fractions this policy implies.

        Two-phase policies derive the vector from ``switch_fraction``
        (degenerating to a single segment at 0.0/1.0); schedule
        policies return their vector verbatim.
        """
        if self.fractions is not None:
            return self.fractions
        if self.switch_fraction in (0.0, 1.0):
            return (1.0,)
        return (self.switch_fraction, 1.0 - self.switch_fraction)

    def segment_boundaries(self, total_steps: int) -> tuple[int, ...]:
        """Cumulative end step of each segment, zero-fraction ones
        included — the step targets of the plan this policy builds
        (:meth:`~repro.distsim.job.TrainingPlan.step_targets`)."""
        return cumulative_step_targets(self.plan_fractions(), total_steps)

    def build_plan(
        self,
        job: JobConfig,
        n_workers: int,
        protocol_policy: ProtocolPolicy | ProtocolSchedule | None = None,
        config_policy: ConfigurationPolicy | None = None,
    ) -> TrainingPlan:
        """Materialise the plan with configured hyper-parameters."""
        protocol_policy = protocol_policy or ProtocolPolicy()
        config_policy = config_policy or ConfigurationPolicy()
        if self.fractions is not None:
            return self._build_schedule_plan(
                job, n_workers, protocol_policy, config_policy
            )
        protocols = protocol_policy.protocols
        if len(protocols) != 2:
            raise ConfigurationError(
                f"two-phase timing policy cannot drive a "
                f"{len(protocols)}-protocol schedule; build it with "
                "TimingPolicy.for_schedule"
            )
        first, second = protocols
        first_options = config_policy.options_for(first, job, n_workers)
        second_options = config_policy.options_for(second, job, n_workers)
        if self.switch_fraction == 0.0:
            return TrainingPlan((Segment(second, 1.0, second_options),))
        if self.switch_fraction == 1.0:
            return TrainingPlan((Segment(first, 1.0, first_options),))
        return TrainingPlan(
            (
                Segment(first, self.switch_fraction, first_options),
                Segment(second, 1.0 - self.switch_fraction, second_options),
            )
        )

    def _build_schedule_plan(
        self,
        job: JobConfig,
        n_workers: int,
        protocol_policy: ProtocolPolicy | ProtocolSchedule,
        config_policy: ConfigurationPolicy,
    ) -> TrainingPlan:
        protocols = protocol_policy.protocols
        assert self.fractions is not None
        if len(protocols) != len(self.fractions):
            raise ConfigurationError(
                f"schedule has {len(protocols)} protocols but the timing "
                f"policy carries {len(self.fractions)} fractions"
            )
        segments = tuple(
            Segment(
                protocol,
                fraction,
                config_policy.options_for(protocol, job, n_workers),
            )
            for protocol, fraction in zip(protocols, self.fractions)
            if fraction > 0.0
        )
        return TrainingPlan(segments)
