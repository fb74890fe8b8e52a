"""Configuration actuators: propagate new configs to cluster nodes.

Paper Section V / Table III: the cluster manager pushes updated
training jobs and configurations to every node.  Doing this node by
node (sequential) costs linearly in cluster size; Sync-Switch's
actuator propagates in parallel, cutting initialization ~2x and
switching ~3x and making overhead grow sub-linearly with cluster size.

The wall-clock costs come from the calibrated
:class:`~repro.distsim.overheads.ProvisioningModel`; the actuators add
the node-level orchestration (drive every hook through
checkpoint -> reconfigure -> restart) so the hook manager's state
machine is exercised exactly as in the real system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.core.runtime.hooks import HookManager
from repro.distsim.overheads import ProvisioningModel

__all__ = ["SequentialActuator", "ParallelActuator"]


@dataclass
class _ActuatorBase:
    """Shared switch/init orchestration."""

    time_scale: float = 1.0
    #: Link-quality multiplier on every provisioning cost (see
    #: :class:`~repro.distsim.overheads.ProvisioningModel`); the fleet
    #: sets it to the worst tier bandwidth among a job's workers.
    bandwidth_factor: float = 1.0
    provisioning: ProvisioningModel = field(init=False)
    #: Whether nodes are contacted concurrently (set by the subclass).
    parallel: ClassVar[bool]

    def __post_init__(self):
        self.provisioning = ProvisioningModel(
            parallel=self.parallel,
            time_scale=self.time_scale,
            bandwidth_factor=self.bandwidth_factor,
        )

    def init_time(self, n_workers: int) -> float:
        """Seconds to set up the training cluster."""
        return self.provisioning.init_time(n_workers)

    def switch_time(self, n_workers: int) -> float:
        """Seconds to switch the synchronization protocol."""
        return self.provisioning.switch_time(n_workers)

    def actuate_switch(
        self, hooks: HookManager, protocol: str, configs: dict
    ) -> float:
        """Drive all node hooks through a protocol switch.

        Returns the wall-clock cost.  The command flow mirrors the
        paper: checkpoint on every node, propagate the new job, restart
        from the checkpoint.
        """
        hooks.broadcast("checkpoint", {})
        hooks.broadcast("reconfigure", {"protocol": protocol, **configs})
        hooks.broadcast("restart", {})
        hooks.drain()
        return self.switch_time(hooks.n_nodes)


class SequentialActuator(_ActuatorBase):
    """Contacts nodes one at a time (the naive baseline of Table III)."""

    parallel = False


class ParallelActuator(_ActuatorBase):
    """Propagates configurations concurrently (Sync-Switch's choice)."""

    parallel = True
