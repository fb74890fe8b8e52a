"""The Sync-Switch controller: policies applied to a live training job.

This is the user-facing entry point of the reproduction, equivalent to
the paper's standalone cluster manager plus its in-framework hooks
(Fig. 9).  Given a job, a cluster and a :class:`PolicyManager`, it:

1. materialises the offline plan (protocol + timing + configuration
   policies);
2. runs the BSP phase while watching per-worker throughput through the
   profiler/detector pipeline;
3. reacts to transient stragglers with the configured online policy
   (greedy protocol flips or elastic evictions);
4. performs every protocol switch through checkpoint -> actuate ->
   restore, charging the calibrated overhead; and
5. returns a :class:`JobResult` combining the training outcome with the
   intervention log.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.policies.manager import PolicyManager
from repro.core.policies.straggler import GreedyPolicy
from repro.core.runtime.detector import StragglerDetector
from repro.core.runtime.profiler import ThroughputProfiler
from repro.core.runtime.switching import ProtocolSwitcher
from repro.distsim.cluster import Cluster, ClusterSpec
from repro.distsim.engines import synchronous_protocols
from repro.distsim.job import JobConfig, Segment
from repro.distsim.stragglers import StragglerSchedule
from repro.distsim.result import TrainingResult
from repro.distsim.trainer import DistributedTrainer
from repro.errors import DivergenceError
from repro.obs.tracer import NULL_TRACER

__all__ = ["SyncSwitchController", "JobResult"]


@dataclass(frozen=True)
class JobResult:
    """Training outcome plus Sync-Switch bookkeeping."""

    result: TrainingResult
    policy_description: str
    interventions: tuple[dict, ...]
    bsp_steps: int
    async_steps: int

    @property
    def intervention_count(self) -> int:
        """Number of online-policy actions taken."""
        return len(self.interventions)


@dataclass
class SyncSwitchController:
    """Run one training job under the full Sync-Switch policy set."""

    job: JobConfig
    cluster_spec: ClusterSpec
    policies: PolicyManager
    stragglers: StragglerSchedule | None = None
    ambient_noise: bool = True
    profiler_window: int = 5
    overhead_time_scale: float = 1.0
    #: Link-quality multiplier on provisioning costs (worst tier
    #: bandwidth among the job's workers in heterogeneous fleets).
    overhead_bandwidth: float = 1.0
    tracer: object | None = None
    _interventions: list[dict] = field(default_factory=list)

    def __post_init__(self):
        if self.tracer is None:
            self.tracer = NULL_TRACER
        self.cluster = Cluster(self.cluster_spec)
        self.switcher = ProtocolSwitcher(
            self.cluster_spec.n_workers,
            time_scale=self.overhead_time_scale,
            bandwidth_factor=self.overhead_bandwidth,
        )
        self.trainer = DistributedTrainer(
            self.job,
            self.cluster,
            stragglers=self.stragglers,
            ambient_noise=self.ambient_noise,
            provisioning=self.switcher.provisioning,
            tracer=self.tracer,
        )

    def run_job(self) -> JobResult:
        """Execute the job under the configured policies."""
        self._interventions = []
        session = self.trainer.new_session()
        plan = self.policies.build_plan(self.job, self.cluster_spec.n_workers)
        try:
            if len(plan.segments) == 1:
                self._run_static(session, plan.segments[0])
            else:
                self._run_switching(session, plan)
        except DivergenceError:
            pass
        result = self.trainer.finalize(session, plan)
        precise_steps = self._synchronous_steps(result)
        return JobResult(
            result=result,
            policy_description=self.policies.describe(),
            interventions=tuple(self._interventions),
            bsp_steps=precise_steps,
            async_steps=result.completed_steps - precise_steps,
        )

    # ------------------------------------------------------------------
    # plan execution
    # ------------------------------------------------------------------
    def _run_static(self, session, segment: Segment) -> None:
        self.trainer.run_segment(
            session, segment, self.job.total_steps, charge_switch=False
        )

    def _run_switching(self, session, plan) -> None:
        segments = plan.segments
        first, second = segments[0], segments[1]
        targets = plan.step_targets(self.job.total_steps)
        online = self.policies.straggler
        if online is not None and online.reacts_online():
            finished_in_async = self._run_bsp_phase_online(
                session, first, second, targets[0], online
            )
            if finished_in_async:
                return
        else:
            self.trainer.run_segment(
                session, first, targets[0], charge_switch=False
            )
        # Each planned switch: checkpoint, actuate, restore, run next.
        for segment, target in zip(segments[1:], targets[1:]):
            self.switcher.switch(session, segment)
            remaining = target - session.step
            if remaining > 0:
                self.trainer.run_segment(
                    session, segment, remaining, charge_switch=False
                )

    def _run_bsp_phase_online(
        self, session, bsp_segment, async_segment, bsp_budget, policy
    ) -> bool:
        """BSP phase with straggler monitoring.

        Returns True when the whole job finished inside an ASP
        interlude (greedy policy near the end of the budget).
        """
        profiler = ThroughputProfiler(
            batch_size=self.job.batch_size, window=self.profiler_window
        )
        detector = StragglerDetector(
            consecutive=policy.detection_windows,
            clear_windows=policy.clear_windows,
        )
        evicted: list[int] = []
        bsp_done = self._protocol_steps_session(session, bsp_segment.protocol)

        while bsp_done < bsp_budget:
            stop = self._detection_stop(session, profiler, detector)
            start_step = session.step
            reason = self.trainer.run_segment(
                session,
                bsp_segment,
                bsp_budget - bsp_done,
                stop=stop,
                charge_switch=False,
            )
            bsp_done += session.step - start_step
            if reason == "completed" or bsp_done >= bsp_budget:
                break
            flagged = sorted(detector.flagged)
            if isinstance(policy, GreedyPolicy):
                finished = self._greedy_interlude(
                    session, bsp_segment, async_segment, detector, profiler, flagged
                )
                if finished:
                    return True
            else:
                self._elastic_evict(session, detector, profiler, flagged, evicted)

        if evicted:
            self._restore_cluster(session, evicted)
        return False

    def _greedy_interlude(
        self, session, bsp_segment, async_segment, detector, profiler, flagged
    ) -> bool:
        """Greedy policy: ASP until the cluster is clear again."""
        remaining = self.job.total_steps - session.step
        if remaining <= 0:
            # Already at the step budget: switching protocols now would
            # charge a pointless checkpoint->actuate->restore overhead.
            return True
        self._log_intervention(
            session, "greedy-switch-to-asp", {"flagged": flagged}
        )
        self.switcher.switch(session, async_segment)
        profiler.reset()
        detector.reset()
        stop = self._clearance_stop(session, profiler, detector)
        reason = self.trainer.run_segment(
            session, async_segment, remaining, stop=stop, charge_switch=False
        )
        if reason == "completed":
            return True
        self._log_intervention(session, "greedy-switch-back-to-bsp", {})
        profiler.reset()
        detector.reset()
        # Switch back to BSP (second switch of the round trip).
        self.switcher.switch(session, bsp_segment)
        return False

    def _elastic_evict(
        self, session, detector, profiler, flagged, evicted
    ) -> None:
        """Elastic policy: drop stragglers from the BSP cluster."""
        for worker in flagged:
            if not self.cluster.is_active(worker) or self.cluster.n_active <= 2:
                continue
            self.cluster.evict(worker)
            evicted.append(worker)
            detector.unflag(worker)
            profiler.forget(worker)
            self.trainer.charge_resize_overhead(session, "evict")
            self._log_intervention(session, "elastic-evict", {"worker": worker})
        detector.reset()

    def _restore_cluster(self, session, evicted) -> None:
        """Elastic policy: bring evicted workers back for the ASP phase."""
        self.cluster.restore_all()
        self.trainer.charge_resize_overhead(session, "restore")
        self._log_intervention(
            session, "elastic-restore", {"workers": sorted(evicted)}
        )
        evicted.clear()

    # ------------------------------------------------------------------
    # stop conditions (the profiler/detector feed)
    # ------------------------------------------------------------------
    def _detection_stop(self, session, profiler, detector):
        """Stop the BSP engine when a straggler is detected."""
        cursor = len(session.telemetry.worker_durations)

        def stop(current_session) -> str | None:
            nonlocal cursor
            entries = current_session.telemetry.worker_durations
            while cursor < len(entries):
                _, worker, duration = entries[cursor]
                if duration > 0:
                    profiler.observe(worker, duration)
                cursor += 1
            newly = detector.observe_window(profiler.throughputs())
            if newly:
                return "straggler-detected"
            return None

        return stop

    def _clearance_stop(self, session, profiler, detector):
        """Stop the ASP interlude when the cluster looks clear again."""
        cursor = len(session.telemetry.worker_durations)
        pushes = 0
        window = max(self.cluster.n_active, 1)

        def stop(current_session) -> str | None:
            nonlocal cursor, pushes
            entries = current_session.telemetry.worker_durations
            while cursor < len(entries):
                _, worker, duration = entries[cursor]
                if duration > 0:
                    profiler.observe(worker, duration)
                cursor += 1
                pushes += 1
            if pushes >= window:
                pushes = 0
                detector.observe_window(profiler.throughputs())
                if detector.stable_clear():
                    return "cluster-clear"
            return None

        return stop

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _log_intervention(self, session, kind: str, details: dict) -> None:
        self._interventions.append(
            {
                "time": session.clock.now,
                "step": session.step,
                "kind": kind,
                **details,
            }
        )
        if self.tracer.wants("job"):
            self.tracer.instant(
                kind,
                "intervention",
                session.clock.now,
                tid=1,
                args={"step": session.step, **details},
            )

    @staticmethod
    def _synchronous_steps(result: TrainingResult) -> int:
        """Steps trained under barrier-style (registry-synchronous) protocols."""
        synchronous = synchronous_protocols()
        return sum(
            record["end_step"] - record["start_step"]
            for record in result.segment_summary
            if record["protocol"] in synchronous
            and record["end_step"] is not None
        )

    @staticmethod
    def _protocol_steps_session(session, protocol: str) -> int:
        return sum(
            record.steps
            for record in session.telemetry.segments
            if record.protocol == protocol
        )
