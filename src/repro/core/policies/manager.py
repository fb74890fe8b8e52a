"""Policy manager: one object bundling all Sync-Switch policies.

Mirrors the "Policy Manager" box of the paper's architecture diagram
(Fig. 9): it owns the protocol, timing and configuration policies plus
an optional online straggler policy, and produces the concrete
:class:`~repro.distsim.job.TrainingPlan` the controller executes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.policies.config import ConfigurationPolicy
from repro.core.policies.protocol import ProtocolSchedule
from repro.core.policies.straggler import StragglerPolicy
from repro.core.policies.timing import TimingPolicy
from repro.distsim.job import JobConfig, TrainingPlan

__all__ = ["PolicyManager"]


@dataclass(frozen=True)
class PolicyManager:
    """The complete policy set for one training job.

    ``protocol`` and ``timing`` are aligned: one fraction of the step
    budget per scheduled protocol (the default schedule is the paper's
    BSP -> ASP pair).
    """

    timing: TimingPolicy
    protocol: ProtocolSchedule = field(default_factory=ProtocolSchedule)
    config: ConfigurationPolicy = field(default_factory=ConfigurationPolicy)
    straggler: StragglerPolicy | None = None

    def build_plan(self, job: JobConfig, n_workers: int) -> TrainingPlan:
        """The offline plan (before any online interventions)."""
        return self.timing.build_plan(
            job, n_workers, self.protocol, self.config
        )

    def describe(self) -> str:
        """Human-readable policy summary (Table I notation)."""
        online = self.straggler.name if self.straggler else "none"
        names = ", ".join(
            protocol.upper() for protocol in self.protocol.protocols
        )
        shares = "/".join(
            f"{fraction * 100:g}%" for fraction in self.timing.fractions
        )
        return f"([{names}], {shares}, online={online})"
