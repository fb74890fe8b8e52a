"""A one-shot wrapper: a job run to completion as a :class:`JobResult`.

Given a job, a cluster and a :class:`PolicyManager`, it runs the job
through the plan runner,
:class:`~repro.core.runtime.elastic.ElasticTrainingRun`, and returns the
training outcome with the intervention log.  No ``src/`` path calls it:
a run spec, a fleet job and the examples drive the plan runner
directly.  ``benchmarks/ledger/layers.py`` is its last importer (it
wraps ``run_job`` by name); ROADMAP item 6 deletes this module with it.
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
