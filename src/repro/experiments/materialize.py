"""Run-spec materialisation: the cache-miss half of the experiment runner.

A *run spec* is a plain JSON-able dict describing one training
configuration; :func:`execute_spec` turns it into policies + controller
(or a raw trainer plan for engine-level ablations) and trains it.  This
module imports the whole training stack (policies, runtime, engines,
numpy), so :class:`~repro.experiments.runner.ExperimentRunner` and
:class:`~repro.experiments.executor.ParallelExecutor` load it on their
first cache miss — in the parent process, before any worker pool is
created — and a run served from the cache never does.

Spec reference::

    {"kind": "switch", "percent": 6.25}                  # Sync-Switch plan
    {"kind": "switch", "percent": 6.25,
     "momentum_mode": "zero"}                            # Fig 8b ablation
    {"kind": "static", "protocol": "bsp"}                # baselines
    {"kind": "schedule", "protocols": ["bsp", "ssp", "asp"],
     "fractions": [0.1, 0.3, 0.6]}                       # N-segment plan
    {"kind": "reversed", "percent": 50.0}                # ASP->BSP ablation
    {"kind": "custom_static", "protocol": "asp",
     "options": {"batch_size": 1024}}                    # Fig 8a ablation
    + optional keys:
      "steps_scale": 0.25          # shorten the run (throughput probes)
      "ambient": false             # disable background cloud noise
      "stragglers": {"n": 1, "occurrences": 1, "latency": 0.010,
                     "permanent": false}
      "online": "greedy" | "elastic"                     # Fig 15 policies
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.policies import (
    ConfigurationPolicy,
    ElasticPolicy,
    GreedyPolicy,
    PolicyManager,
    ProtocolSchedule,
    TimingPolicy,
)
from repro.core.runtime import SyncSwitchController
from repro.distsim.cluster import Cluster, ClusterSpec
from repro.distsim.job import JobConfig, Segment, TrainingPlan
from repro.distsim.overheads import ProvisioningModel
from repro.distsim.result import TrainingResult
from repro.distsim.stragglers import StragglerEvent, StragglerSchedule
from repro.distsim.timing import timing_for
from repro.distsim.trainer import DistributedTrainer
from repro.errors import ConfigurationError
from repro.experiments.runner import ExperimentRunner
from repro.experiments.setups import ExperimentSetup, scaled_job
from repro.rng import child_rng

__all__ = ["execute_cell", "execute_spec", "with_steps_scale"]


def execute_cell(payload: tuple) -> tuple[str, dict]:
    """Pool worker: train one cell through a fresh single-seed runner.

    The runner's :meth:`~ExperimentRunner.run` re-checks the shared
    disk cache before executing (a sibling may have finished the cell
    meanwhile) and stores the result atomically on completion.
    """
    scale, cache_dir, request, key = payload
    runner = ExperimentRunner(
        scale=scale,
        seeds=1,
        cache_dir=cache_dir if cache_dir is not None else "off",
    )
    return key, runner.run(request.setup, request.spec, request.seed).to_dict()


def execute_spec(
    setup: ExperimentSetup, spec: dict, seed: int, scale: float
) -> TrainingResult:
    """Train the configuration ``spec`` describes on ``setup`` at ``scale``."""
    job = scaled_job(setup, scale, seed)
    steps_scale = float(spec.get("steps_scale", 1.0))
    if steps_scale != 1.0:
        job = with_steps_scale(job, steps_scale)
    ambient = bool(spec.get("ambient", True))
    stragglers = _straggler_schedule(setup, spec, job, seed)

    if spec["kind"] == "custom_static":
        return _execute_raw(setup, spec, job, stragglers, ambient, scale)

    controller = SyncSwitchController(
        job=job,
        cluster_spec=ClusterSpec(n_workers=setup.n_workers),
        policies=_policies(spec),
        stragglers=stragglers,
        ambient_noise=ambient,
        overhead_time_scale=scale,
    )
    return controller.run_job().result


def with_steps_scale(job: JobConfig, steps_scale: float) -> JobConfig:
    """Shorten the step budget, preserving every other job field.

    Uses :func:`dataclasses.replace` so fields like
    ``divergence_threshold`` are never silently reset to defaults.
    """
    return replace(
        job, total_steps=max(int(job.total_steps * steps_scale), 200)
    )


def _execute_raw(
    setup, spec, job, stragglers, ambient, scale: float
) -> TrainingResult:
    """Engine-level run for ablations outside the policy space."""
    protocol = spec["protocol"]
    options = dict(spec.get("options", {}))
    plan = TrainingPlan((Segment(protocol, 1.0, options),))
    trainer = DistributedTrainer(
        job,
        Cluster(ClusterSpec(n_workers=setup.n_workers)),
        stragglers=stragglers,
        ambient_noise=ambient,
        provisioning=ProvisioningModel(time_scale=scale),
    )
    return trainer.run(plan)


def _policies(spec: dict) -> PolicyManager:
    """The policy set of a run spec: every kind is one
    ``(protocols, fractions)`` schedule."""
    kind = spec["kind"]
    online = None
    if spec.get("online") == "greedy":
        online = GreedyPolicy()
    elif spec.get("online") == "elastic":
        online = ElasticPolicy()

    build = ProtocolSchedule
    if kind in ("switch", "reversed"):
        fraction = spec["percent"] / 100.0
        protocols, fractions = ("bsp", "asp"), (fraction, 1.0 - fraction)
        if kind == "reversed":  # the Fig. 5a ablation
            protocols, build = ("asp", "bsp"), ProtocolSchedule.allow_reversed
    elif kind == "static":
        protocols, fractions = (spec["protocol"],), (1.0,)
    elif kind == "schedule":
        protocols = tuple(str(name) for name in spec["protocols"])
        fractions = tuple(float(value) for value in spec["fractions"])
    else:
        raise ConfigurationError(f"unknown run-spec kind {kind!r}")
    return PolicyManager(
        timing=TimingPolicy.for_schedule(fractions, source="harness"),
        protocol=build(protocols),
        config=ConfigurationPolicy(
            momentum_mode=spec.get("momentum_mode", "baseline")
        ),
        straggler=online,
    )


def _straggler_schedule(
    setup: ExperimentSetup, spec: dict, job: JobConfig, seed: int
) -> StragglerSchedule | None:
    raw = spec.get("stragglers")
    if not raw:
        return None
    count = int(raw["n"])
    latency = float(raw["latency"])
    rng = child_rng(seed, f"straggler/{setup.key}")
    if raw.get("permanent"):
        horizon = 10_000_000.0
        schedule = StragglerSchedule()
        for worker in range(count):
            schedule.add(
                StragglerEvent(
                    worker=worker,
                    start=0.0,
                    duration=horizon,
                    extra_latency=latency,
                )
            )
        return schedule
    occurrences = int(raw.get("occurrences", 1))
    duration = float(raw.get("duration", 100.0))
    window_end = max(_bsp_phase_estimate(setup, spec, job), 30.0)
    schedule = StragglerSchedule()
    workers = rng.choice(setup.n_workers, size=count, replace=False)
    for worker in workers:
        for _ in range(occurrences):
            start = float(rng.uniform(2.0, max(window_end * 0.8, 3.0)))
            schedule.add(
                StragglerEvent(
                    worker=int(worker),
                    start=start,
                    duration=duration,
                    extra_latency=latency,
                )
            )
    return schedule


def _bsp_phase_estimate(
    setup: ExperimentSetup, spec: dict, job: JobConfig
) -> float:
    """Rough simulated duration of the plan's BSP phase."""
    percent = float(spec.get("percent", setup.policy_percent))
    timing = timing_for(setup.model)
    rounds = percent / 100.0 * job.total_steps / setup.n_workers
    round_time = (
        timing.mean_compute_time(job.batch_size) * 1.3
        + timing.sync_overhead(setup.n_workers)
    )
    return rounds * round_time * 1.25
