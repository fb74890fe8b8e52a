"""The paper's three experiment setups (Table I) at simulator scale.

Every harness run is parameterised by a *scale* factor applied to the
paper's step budget (64K steps for setups 1/3, 128K for setup 2): at
scale 1/16 — the default — setup 1 trains 4 000 steps.  Schedule shape
(learning-rate decay at 50%/75%), batch size, cluster size and all
policies are scale-invariant; absolute accuracies and times are not,
which is why every report prints paper-vs-measured.

Environment knobs:

* ``REPRO_SCALE`` — step-budget scale factor (default ``0.0625``).
* ``REPRO_SEEDS`` — repetitions per configuration (default 3; the
  paper repeats 5 times).
* ``REPRO_CACHE_DIR`` — on-disk result cache location (default
  ``<repo>/.exp_cache``; set to ``0``/``off`` to disable).
* ``REPRO_JOBS`` — worker processes for batched experiment execution
  (default 1 = inline; see :mod:`repro.experiments.executor`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.distsim.job import JobConfig
from repro.errors import ConfigurationError

__all__ = [
    "ExperimentSetup",
    "SETUPS",
    "TRACE_STEP_FLOOR",
    "check_scale",
    "default_scale",
    "default_seeds",
    "scaled_job",
    "scaled_steps",
    "switch_spec",
]

#: Base learning rate shared by all workloads.  The paper uses 0.1 for
#: real ResNets with batch normalisation; the simulator's residual MLPs
#: need a cooler base rate for the same qualitative regime (BSP stable
#: at n*lr, ASP stable at n=8, ASP divergent at n=16).
BASE_LR = 0.004


@dataclass(frozen=True)
class ExperimentSetup:
    """One row of Table I."""

    index: int
    key: str
    workload: str
    model: str
    dataset: str
    n_workers: int
    paper_steps: int
    base_lr: float
    policy_percent: float
    search_max_settings: int
    sweep_percents: tuple[float, ...]
    paper: dict

    def describe(self) -> str:
        """Short label, e.g. ``exp1: ResNet32/CIFAR-10 x8``."""
        return f"{self.key}: {self.workload} x{self.n_workers}"


SETUPS: dict[int, ExperimentSetup] = {
    1: ExperimentSetup(
        index=1,
        key="exp1",
        workload="ResNet32 on CIFAR-10 (simulated)",
        model="resnet32-sim",
        dataset="cifar10-sim",
        n_workers=8,
        paper_steps=64_000,
        base_lr=BASE_LR,
        policy_percent=6.25,
        search_max_settings=5,
        sweep_percents=(0.0, 3.125, 6.25, 12.5, 25.0, 50.0, 100.0),
        paper={
            "bsp_accuracy": 0.919,
            "asp_accuracy": 0.892,
            "syncswitch_accuracy": 0.923,
            "speedup_vs_bsp": 5.13,
            "throughput_vs_asp": 0.78,
            "tta_speedup_vs_bsp": 3.99,
            "normalized_time_asp": 0.152,
            "normalized_time_syncswitch": 0.195,
        },
    ),
    2: ExperimentSetup(
        index=2,
        key="exp2",
        workload="ResNet50 on CIFAR-100 (simulated)",
        model="resnet50-sim",
        dataset="cifar100-sim",
        n_workers=8,
        paper_steps=128_000,
        base_lr=BASE_LR,
        policy_percent=12.5,
        search_max_settings=4,
        sweep_percents=(0.0, 6.25, 12.5, 25.0, 50.0, 100.0),
        paper={
            "bsp_accuracy": 0.746,
            "asp_accuracy": 0.708,
            "syncswitch_accuracy": 0.746,
            "speedup_vs_bsp": 1.66,
            "throughput_vs_asp": 0.89,
            "tta_speedup_vs_bsp": 1.60,
            "normalized_time_asp": 0.538,
            "normalized_time_syncswitch": 0.601,
        },
    ),
    3: ExperimentSetup(
        index=3,
        key="exp3",
        workload="ResNet32 on CIFAR-10 (simulated)",
        model="resnet32-sim",
        dataset="cifar10-sim",
        n_workers=16,
        paper_steps=64_000,
        base_lr=BASE_LR,
        policy_percent=50.0,
        search_max_settings=1,
        sweep_percents=(0.0, 25.0, 50.0, 100.0),
        paper={
            "bsp_accuracy": 0.923,
            "asp_accuracy": None,  # diverged
            "syncswitch_accuracy": 0.922,
            "speedup_vs_bsp": 1.87,
            "throughput_vs_asp": None,  # ASP failed
            "tta_speedup_vs_bsp": 1.08,
            "normalized_time_asp": None,
            "normalized_time_syncswitch": 0.536,
        },
    ),
}


def switch_spec(percent: float, **options) -> dict:
    """Run spec of a BSP->ASP switch at ``percent`` % of the budget.

    ``options`` are the optional spec keys (``momentum_mode``,
    ``stragglers``, ...; see :mod:`repro.experiments.materialize`).
    """
    return {"kind": "switch", "percent": percent, **options}


def default_scale() -> float:
    """Step-budget scale from ``REPRO_SCALE`` (default 1/16)."""
    raw = os.environ.get("REPRO_SCALE", "0.0625")
    try:
        scale = float(raw)
    except ValueError as exc:
        raise ConfigurationError(f"bad REPRO_SCALE {raw!r}") from exc
    if not 0.0 < scale <= 1.0:
        raise ConfigurationError("REPRO_SCALE must be in (0, 1]")
    return scale


def default_seeds() -> int:
    """Repetitions per configuration from ``REPRO_SEEDS``.

    Defaults to 3 to keep a cold-cache benchmark pass around ten
    minutes; set ``REPRO_SEEDS=5`` for the paper's repetition count.
    """
    raw = os.environ.get("REPRO_SEEDS", "3")
    try:
        seeds = int(raw)
    except ValueError as exc:
        raise ConfigurationError(f"bad REPRO_SEEDS {raw!r}") from exc
    if seeds < 1:
        raise ConfigurationError("REPRO_SEEDS must be >= 1")
    return seeds


#: Step floor for size-scaled trace jobs.  The regular 400-step floor
#: keeps single-job experiments meaningful, but a heavy-tailed trace
#: workload needs genuinely small jobs — bounding them below at one
#: learning-rate-decay-free sprint keeps the engine's segment logic
#: exercised without flattening the Pareto head into one size.
TRACE_STEP_FLOOR = 48


def scaled_steps(
    setup: ExperimentSetup, scale: float, steps_scale: float = 1.0
) -> int:
    """Step budget of ``setup`` at ``scale``, optionally size-scaled.

    ``steps_scale`` is the per-job size multiplier of trace workloads
    (bounded-Pareto samples); at exactly 1.0 this reproduces the
    :func:`scaled_job` budget bit for bit, including its 400-step
    floor, while size-scaled jobs floor at :data:`TRACE_STEP_FLOOR`.
    """
    if steps_scale <= 0.0:
        raise ConfigurationError("steps_scale must be positive")
    floor = 400 if steps_scale == 1.0 else TRACE_STEP_FLOOR
    return max(int(round(setup.paper_steps * scale * steps_scale)), floor)


def check_scale(scale: float) -> None:
    """Reject a step-budget ``scale`` outside (0, 1]."""
    if not 0.0 < scale <= 1.0:
        raise ConfigurationError(f"scale must be in (0, 1], got {scale:g}")


def scaled_job(
    setup: ExperimentSetup,
    scale: float,
    seed: int,
    steps_scale: float = 1.0,
) -> JobConfig:
    """The job config for ``setup`` at ``scale`` with one seed."""
    check_scale(scale)
    steps = scaled_steps(setup, scale, steps_scale)
    return JobConfig(
        model=setup.model,
        dataset=setup.dataset,
        total_steps=steps,
        batch_size=128,
        base_lr=setup.base_lr,
        momentum=0.9,
        eval_every=max(steps // 25, 25),
        loss_log_every=max(steps // 100, 10),
        seed=seed,
    )
