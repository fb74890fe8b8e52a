"""Configuration policy: hyper-parameters per synchronization protocol.

Paper Section IV-C.  Given the user's initial per-worker values —
mini-batch ``B``, learning rate ``eta``, momentum ``m`` — and a cluster
of ``n`` workers:

* **BSP**: global batch ``n*B`` (each worker still computes ``B``) and
  learning rate ``n*eta`` (linear scaling rule, Goyal et al. [26]).
* **ASP** (and other asynchronous protocols): per-worker batch ``B``
  and learning rate ``eta``; momentum stays at ``m`` — the paper's
  ablation (Fig. 8b) found the constant momentum best among five
  options, which are all available here as ``momentum_mode``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.distsim.engines import is_synchronous
from repro.distsim.job import JobConfig
from repro.errors import ConfigurationError
from repro.mlcore.optim import (
    ConstantMomentum,
    FixedScaledMomentum,
    LinearRampMomentum,
    MomentumSchedule,
    NonlinearRampMomentum,
    ZeroMomentum,
)

__all__ = ["ConfigurationPolicy", "MOMENTUM_MODES"]

#: The five momentum-adjustment variants of Fig. 8(b).
MOMENTUM_MODES = (
    "baseline",
    "zero",
    "fixed-scaled",
    "nonlinear-ramp",
    "linear-ramp",
)


@dataclass(frozen=True)
class ConfigurationPolicy:
    """Maps (protocol, job, cluster size) to engine segment options."""

    momentum_mode: str = "baseline"
    #: Segment options that replace the adjustment rules' values: a
    #: static run spec's ``options`` (Fig. 8a's per-worker batch size).
    overrides: tuple[tuple[str, object], ...] = ()

    def __post_init__(self):
        if self.momentum_mode not in MOMENTUM_MODES:
            raise ConfigurationError(
                f"unknown momentum mode {self.momentum_mode!r}; "
                f"known: {MOMENTUM_MODES}"
            )

    def options_for(
        self, protocol: str, job: JobConfig, n_workers: int
    ) -> dict:
        """Segment options implementing the paper's adjustment rules."""
        if n_workers <= 0:
            raise ConfigurationError("n_workers must be positive")
        if is_synchronous(protocol):  # BSP-family: linear scaling rule
            options = {
                "batch_size": job.batch_size,
                "lr_multiplier": float(n_workers),
            }
        else:
            options = {
                "batch_size": job.batch_size,
                "lr_multiplier": 1.0,
                "momentum_schedule": self.momentum_schedule(job, n_workers),
            }
        return options | dict(self.overrides)

    def momentum_schedule(
        self, job: JobConfig, n_workers: int
    ) -> MomentumSchedule:
        """The post-switch momentum schedule for asynchronous phases."""
        if self.momentum_mode == "baseline":
            return ConstantMomentum(momentum=job.momentum)
        if self.momentum_mode == "zero":
            return ZeroMomentum()
        if self.momentum_mode == "fixed-scaled":
            return FixedScaledMomentum(n_workers=n_workers)
        if self.momentum_mode == "nonlinear-ramp":
            return NonlinearRampMomentum(
                momentum=job.momentum, n_workers=n_workers
            )
        return LinearRampMomentum(momentum=job.momentum, n_workers=n_workers)
