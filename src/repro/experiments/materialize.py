"""Run-spec materialisation: the cache-miss half of the experiment runner.

A *run spec* is a plain JSON-able dict describing one training
configuration; :func:`execute_spec` turns it into policies and an
:class:`~repro.core.runtime.elastic.ElasticTrainingRun` (or a raw
trainer plan for engine-level ablations) and trains it.  This
module imports the whole training stack (policies, runtime, engines,
numpy), so :class:`~repro.experiments.executor.ParallelExecutor` loads
it on its first cache miss — in the parent process, before any worker
pool is created — and a run served from the cache never does.
:func:`execute_cell` is that executor's training cell.

Cells that open with the same BSP segment of the same job train that
opening once.  :func:`opening_key` names the opening a cell's plan
starts with (None when the cell must train alone), an inline executor
batch makes its pending cells of one key a work item, and
:func:`execute_group` trains it: the member with the latest switch step is the *trunk*, and
:meth:`~repro.core.runtime.elastic.ElasticTrainingRun.branch_opening`
forks every other member from inside the trunk's opening at its switch
step.  Each member's result is bit-identical to its own
:func:`execute_spec` run.  A cell shares its opening only when all of
these hold:

* its kind is ``switch``, ``static`` or ``schedule`` and its plan opens
  with ``bsp`` (``reversed``, pure-ASP and ``custom_static`` cells, and
  OSP openers, whose last super-round is trimmed to the budget, train
  alone);
* it has no ``online`` policy and no ``stragglers`` (the straggler
  window depends on the switch percent);
* its setup, seed, ``steps_scale``, ``ambient`` and opening options
  match the other members' (the executor batch fixes the scale).

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

from collections.abc import Iterator
from dataclasses import replace

from repro.core.policies import (
    ConfigurationPolicy,
    ElasticPolicy,
    GreedyPolicy,
    PolicyManager,
    ProtocolSchedule,
    TimingPolicy,
)
from repro.core.runtime import ElasticTrainingRun
from repro.distsim.cluster import Cluster, ClusterSpec
from repro.distsim.job import JobConfig, Segment, TrainingPlan
from repro.distsim.overheads import ProvisioningModel
from repro.distsim.result import TrainingResult
from repro.distsim.stragglers import StragglerEvent, StragglerSchedule
from repro.distsim.timing import timing_for
from repro.distsim.trainer import DistributedTrainer
from repro.errors import ConfigurationError
from repro.experiments.executor import disk_load, disk_store
from repro.experiments.setups import ExperimentSetup, scaled_job
from repro.rng import child_rng

__all__ = [
    "execute_cell",
    "execute_group",
    "execute_spec",
    "opening_key",
    "train_group",
    "with_steps_scale",
]

#: Run-spec kinds whose plan is a protocol schedule under offline
#: policies only: the kinds whose BSP opening can be shared.
_SHAREABLE_KINDS = ("switch", "static", "schedule")


def execute_cell(payload: tuple) -> tuple[str, dict]:
    """Pool worker: load one cell from the shared disk cache (a sibling
    may have finished it meanwhile), else train it and store it."""
    scale, cache_dir, request, key = payload
    result = disk_load(cache_dir, key)
    if result is None:
        result = execute_spec(request.setup, request.spec, request.seed, scale)
        disk_store(cache_dir, key, result)
    return key, result.to_dict()


def execute_group(payload: tuple) -> Iterator[tuple[str, dict]]:
    """Inline worker for cells of one :func:`opening_key`: yield the
    ``(key, json_dict)`` of every member, loading those already cached
    and training the rest as one group (:func:`train_group`), each
    stored as soon as it is trained."""
    scale, cache_dir, requests, keys = payload
    missing = []
    for request, key in zip(requests, keys):
        result = disk_load(cache_dir, key)
        if result is None:
            missing.append((request, key))
        else:
            yield key, result.to_dict()
    if not missing:
        return
    trained = train_group([request for request, _ in missing], scale)
    for index, result in trained:
        key = missing[index][1]
        disk_store(cache_dir, key, result)
        yield key, result.to_dict()


def opening_key(request, scale: float) -> tuple | None:
    """The BSP opening the cell of ``request`` trains first, as the
    identity of the cells it shares that opening with; None when it
    trains alone (see the module docstring for the rule)."""
    spec = request.spec
    if (
        spec["kind"] not in _SHAREABLE_KINDS
        or spec.get("online")
        or spec.get("stragglers")
    ):
        return None
    setup = request.setup
    job = _job(setup, spec, request.seed, scale)
    opening = _policies(spec).build_plan(job, setup.n_workers).segments[0]
    if opening.protocol != "bsp":
        return None
    return (
        setup.key,
        request.seed,
        float(spec.get("steps_scale", 1.0)),
        bool(spec.get("ambient", True)),
        tuple(sorted(opening.options.items())),
    )


def train_group(
    requests: list, scale: float
) -> Iterator[tuple[int, TrainingResult]]:
    """Train cells of one :func:`opening_key` at ``scale``, their shared
    BSP opening once; yields ``(index into requests, result)`` as each
    cell finishes, each result bit-identical to the cell's
    :func:`execute_spec` run."""
    keys = {opening_key(request, scale) for request in requests}
    if None in keys or len(keys) > 1:
        raise ConfigurationError(
            "a group shares one BSP opening of one job; got openings "
            f"{sorted(map(str, keys))}"
        )
    first = requests[0]
    setup, seed = first.setup, first.seed
    job = _job(setup, first.spec, seed, scale)
    policies = [_policies(request.spec) for request in requests]
    switch_steps = [
        manager.build_plan(job, setup.n_workers).step_targets(
            job.total_steps
        )[0]
        for manager in policies
    ]
    trunk = switch_steps.index(max(switch_steps))
    run = _run(setup, requests[trunk].spec, seed, scale, policies[trunk])
    others = [index for index in range(len(requests)) if index != trunk]
    branches = run.branch_opening([policies[index] for index in others])
    for index in others:
        # Popped, so each branch is released once it has its result.
        yield index, _finish(branches.pop(0))
    yield trunk, _finish(run)


def execute_spec(
    setup: ExperimentSetup, spec: dict, seed: int, scale: float
) -> TrainingResult:
    """Train the configuration ``spec`` describes on ``setup`` at ``scale``."""
    if spec["kind"] == "custom_static":
        return _execute_raw(setup, spec, seed, scale)
    return _finish(_run(setup, spec, seed, scale, _policies(spec)))


def with_steps_scale(job: JobConfig, steps_scale: float) -> JobConfig:
    """Shorten the step budget, preserving every other job field.

    Uses :func:`dataclasses.replace` so fields like
    ``divergence_threshold`` are never silently reset to defaults.
    """
    return replace(
        job, total_steps=max(int(job.total_steps * steps_scale), 200)
    )


def _job(
    setup: ExperimentSetup, spec: dict, seed: int, scale: float
) -> JobConfig:
    """The job of a run spec: the setup's at ``scale``, shortened by its
    ``steps_scale``."""
    job = scaled_job(setup, scale, seed)
    steps_scale = float(spec.get("steps_scale", 1.0))
    if steps_scale != 1.0:
        job = with_steps_scale(job, steps_scale)
    return job


def _run(
    setup: ExperimentSetup,
    spec: dict,
    seed: int,
    scale: float,
    policies: PolicyManager,
) -> ElasticTrainingRun:
    """The run a spec trains under ``policies``, not yet started."""
    job = _job(setup, spec, seed, scale)
    return ElasticTrainingRun(
        job=job,
        cluster_spec=ClusterSpec(n_workers=setup.n_workers),
        policies=policies,
        stragglers=_straggler_schedule(setup, spec, job, seed),
        ambient_noise=bool(spec.get("ambient", True)),
        overhead_time_scale=scale,
    )


def _finish(run: ElasticTrainingRun) -> TrainingResult:
    """Train ``run`` to its end and return its result."""
    run.run_to_completion()
    return run.result()


def _execute_raw(setup, spec, seed, scale: float) -> TrainingResult:
    """Engine-level run for ablations outside the policy space."""
    job = _job(setup, spec, seed, scale)
    protocol = spec["protocol"]
    options = dict(spec.get("options", {}))
    plan = TrainingPlan((Segment(protocol, 1.0, options),))
    trainer = DistributedTrainer(
        job,
        Cluster(ClusterSpec(n_workers=setup.n_workers)),
        stragglers=_straggler_schedule(setup, spec, job, seed),
        ambient_noise=bool(spec.get("ambient", True)),
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
