"""A plain transcription of the one-shot Sync-Switch job, for oracles.

The independent reference for the plan runner
(:class:`~repro.core.runtime.elastic.ElasticTrainingRun`): it imports
nothing from ``repro.core.runtime``.  A job is its offline plan walked segment by
segment (paper Section V): every segment after the first is entered
through a switch — checkpoint, the parallel actuator's calibrated cost
from :class:`~repro.distsim.overheads.ProvisioningModel`, restore —
and then trains up to its step target.  The plan runner charges the
cost alone, so parity with this transcription also shows that the
checkpoint round trip changes no number.  Online straggler policies,
pauses and resizes are out of its scope.
"""

from __future__ import annotations

from repro.distsim.cluster import Cluster, ClusterSpec
from repro.distsim.job import JobConfig
from repro.distsim.overheads import ProvisioningModel
from repro.distsim.result import TrainingResult
from repro.distsim.stragglers import StragglerSchedule
from repro.distsim.trainer import DistributedTrainer
from repro.errors import DivergenceError

__all__ = ["reference_run"]


def reference_run(
    job: JobConfig,
    cluster_spec: ClusterSpec,
    policies,
    stragglers: StragglerSchedule | None = None,
    ambient_noise: bool = True,
    overhead_time_scale: float = 1.0,
    overhead_bandwidth: float = 1.0,
) -> TrainingResult:
    """Train ``job`` under the offline plan of ``policies``."""
    provisioning = ProvisioningModel(
        parallel=True,
        time_scale=overhead_time_scale,
        bandwidth_factor=overhead_bandwidth,
    )
    trainer = DistributedTrainer(
        job,
        Cluster(cluster_spec),
        stragglers=stragglers,
        ambient_noise=ambient_noise,
        provisioning=provisioning,
    )
    session = trainer.new_session()
    plan = policies.build_plan(job, cluster_spec.n_workers)
    targets = plan.step_targets(job.total_steps)
    try:
        for index, (segment, target) in enumerate(zip(plan.segments, targets)):
            if index > 0:
                # Every planned switch is paid, even with no steps left;
                # a restart costs wall-clock and does not rewind it.
                checkpoint = session.ps.state()
                seconds = provisioning.switch_time(cluster_spec.n_workers)
                session.clock.advance(seconds)
                session.telemetry.record_overhead(
                    session.clock.now, "switch", seconds
                )
                session.ps.load_state(checkpoint)
            # The first segment always opens, even for a zero-step
            # budget; later ones train only while steps remain.
            if index == 0 or session.step < target:
                trainer.run_segment(session, segment, target - session.step)
    except DivergenceError:
        pass
    return trainer.finalize(session, plan)
