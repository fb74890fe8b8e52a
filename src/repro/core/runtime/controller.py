"""The Sync-Switch controller: policies applied to a live training job.

This is the user-facing entry point of the reproduction, equivalent to
the paper's standalone cluster manager plus its in-framework hooks
(Fig. 9).  Given a job, a cluster and a :class:`PolicyManager`, it runs
the job to completion through the plan runner,
:class:`~repro.core.runtime.elastic.ElasticTrainingRun` — the offline
plan, the online straggler policies, every protocol switch charged at
its calibrated Table III cost — and returns a :class:`JobResult`
combining the training outcome with the intervention log.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.policies.manager import PolicyManager
from repro.core.runtime.elastic import ElasticTrainingRun
from repro.distsim.cluster import ClusterSpec
from repro.distsim.engines import synchronous_protocols
from repro.distsim.job import JobConfig
from repro.distsim.stragglers import StragglerSchedule
from repro.distsim.result import TrainingResult

__all__ = ["SyncSwitchController", "JobResult"]


@dataclass(frozen=True)
class JobResult:
    """Training outcome plus Sync-Switch bookkeeping."""

    result: TrainingResult
    policy_description: str
    interventions: tuple[dict, ...]
    bsp_steps: int
    async_steps: int


@dataclass
class SyncSwitchController:
    """Run one training job under the full Sync-Switch policy set."""

    job: JobConfig
    cluster_spec: ClusterSpec
    policies: PolicyManager
    stragglers: StragglerSchedule | None = None
    ambient_noise: bool = True
    overhead_time_scale: float = 1.0
    #: Link-quality multiplier on provisioning costs (worst tier
    #: bandwidth among the job's workers in heterogeneous fleets).
    overhead_bandwidth: float = 1.0
    tracer: object | None = None

    def run_job(self) -> JobResult:
        """Execute the job under the configured policies."""
        run = ElasticTrainingRun(
            job=self.job,
            cluster_spec=self.cluster_spec,
            policies=self.policies,
            stragglers=self.stragglers,
            ambient_noise=self.ambient_noise,
            overhead_time_scale=self.overhead_time_scale,
            overhead_bandwidth=self.overhead_bandwidth,
            tracer=self.tracer,
        )
        run.run_to_completion()
        result = run.result()
        # Steps trained under barrier-style (registry-synchronous) protocols.
        synchronous = synchronous_protocols()
        precise_steps = sum(
            record["end_step"] - record["start_step"]
            for record in result.segment_summary
            if record["protocol"] in synchronous
            and record["end_step"] is not None
        )
        return JobResult(
            result=result,
            policy_description=self.policies.describe(),
            interventions=tuple(run.interventions),
            bsp_steps=precise_steps,
            async_steps=result.completed_steps - precise_steps,
        )
