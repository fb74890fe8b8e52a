"""The switch mechanism: checkpoint -> actuate -> restore.

Paper Section V: a protocol switch checkpoints the training state,
propagates the new job to every node through the actuator and the
per-node hooks, and relaunches from the checkpoint, charging the
calibrated overhead to the job's clock.  The one-shot
:class:`~repro.core.runtime.controller.SyncSwitchController` and the
resumable :class:`~repro.core.runtime.elastic.ElasticTrainingRun` each
hold one :class:`ProtocolSwitcher` and switch through it.
"""

from __future__ import annotations

from repro.core.runtime.actuator import ParallelActuator
from repro.core.runtime.checkpoint import CheckpointStore
from repro.core.runtime.hooks import HookManager
from repro.distsim.engines.base import TrainingSession
from repro.distsim.job import Segment

__all__ = ["ProtocolSwitcher"]


class ProtocolSwitcher:
    """Sync-Switch's parallel actuator, the node hooks it drives and
    the checkpoints a switch (or an elastic resize) restarts from."""

    def __init__(
        self,
        n_workers: int,
        time_scale: float = 1.0,
        bandwidth_factor: float = 1.0,
    ):
        self.actuator = ParallelActuator(
            time_scale=time_scale, bandwidth_factor=bandwidth_factor
        )
        #: The cost model the actuator charges from (the trainer's too).
        self.provisioning = self.actuator.provisioning
        self.hooks = HookManager(n_workers)
        self.checkpoints = CheckpointStore()

    def switch(self, session: TrainingSession, segment: Segment) -> None:
        """Checkpoint -> actuate -> restore; the caller then runs
        ``segment``'s engine."""
        checkpoint = self.checkpoints.save(
            session, tag=f"pre-{segment.protocol}"
        )
        seconds = self.actuator.actuate_switch(
            self.hooks,
            segment.protocol,
            {
                key: value
                for key, value in segment.options.items()
                if isinstance(value, (int, float, str))
            },
        )
        session.clock.advance(seconds)
        session.telemetry.record_overhead(session.clock.now, "switch", seconds)
        if session.tracer.wants("job"):
            session.tracer.span(
                "switch",
                "overhead",
                session.clock.now - seconds,
                seconds,
                tid=1,
                args={"to": segment.protocol},
            )
        self.checkpoints.restore(session, checkpoint)
