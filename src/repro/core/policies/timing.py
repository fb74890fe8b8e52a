"""Timing policy: when to switch between the scheduled protocols.

A timing policy is a per-segment fraction vector summing to 1, aligned
with a :class:`~repro.core.policies.protocol.ProtocolSchedule`.  The
paper's offline policy is its two-segment case, a single number — the
fraction of the step budget trained with the precise protocol before
switching (paper Table I: 6.25% / 12.5% / 50% for the three setups) —
which ``TimingPolicy(f)`` expands to ``(f, 1 - f)``.  It is found by
the offline binary search (:mod:`repro.core.search.binary_search`) for
new jobs and reused directly for recurring ones.
:meth:`TimingPolicy.build_plan` materialises the vector through
:meth:`~repro.distsim.job.TrainingPlan.schedule`, whose
``step_targets`` are the exact step boundaries the trainer uses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.policies.config import ConfigurationPolicy
from repro.core.policies.protocol import ProtocolSchedule
from repro.distsim.job import JobConfig, TrainingPlan
from repro.errors import ConfigurationError

__all__ = ["TimingPolicy"]


@dataclass(frozen=True)
class TimingPolicy:
    """Per-segment fractions plus provenance.

    ``fractions`` left empty becomes ``(switch_fraction, 1 -
    switch_fraction)``, the paper's two-phase switch; given explicitly,
    ``switch_fraction`` must equal its first entry (the precise phase's
    share).
    """

    switch_fraction: float
    source: str = "manual"
    fractions: tuple[float, ...] = ()

    def __post_init__(self):
        if not 0.0 <= self.switch_fraction <= 1.0:
            raise ConfigurationError("switch_fraction must be in [0, 1]")
        fractions = tuple(float(value) for value in self.fractions) or (
            self.switch_fraction,
            1.0 - self.switch_fraction,
        )
        object.__setattr__(self, "fractions", fractions)
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
        if not values:
            raise ConfigurationError("fractions must not be empty")
        return cls(values[0], source=source, fractions=values)

    @property
    def switch_percent(self) -> float:
        """Switch point in percent (paper notation)."""
        return self.switch_fraction * 100.0

    def switch_step(self, total_steps: int) -> int:
        """Absolute step at which the first switch happens."""
        return int(round(self.switch_fraction * total_steps))

    def build_plan(
        self,
        job: JobConfig,
        n_workers: int,
        protocol_policy: ProtocolSchedule | None = None,
        config_policy: ConfigurationPolicy | None = None,
    ) -> TrainingPlan:
        """Materialise the plan with configured hyper-parameters;
        zero-fraction segments are dropped."""
        protocols = (protocol_policy or ProtocolSchedule()).protocols
        config_policy = config_policy or ConfigurationPolicy()
        return TrainingPlan.schedule(
            protocols,
            self.fractions,
            [
                config_policy.options_for(protocol, job, n_workers)
                for protocol in protocols
            ],
        )
