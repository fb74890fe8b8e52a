"""Cluster provisioning and protocol-switch overhead model.

Calibrated to the paper's Table III (ResNet32, K80 clusters):

==========  ==========  =========  =============
Cluster     Actuator    Init (s)   Switching (s)
==========  ==========  =========  =============
8 x K80     Sequential  157        90
8 x K80     Parallel    90         36
16 x K80    Sequential  268        165
16 x K80    Parallel    128        53
==========  ==========  =========  =============

Sequential actuation contacts nodes one by one (linear in n); the
parallel actuator propagates tasks concurrently, so cost grows with
``log2(n)`` — the paper's "increases sub-linearly with the cluster
size".  A protocol switch is checkpoint + reconfigure + restart; the
elastic policy's evict/restore are cheaper partial reconfigurations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

from repro.errors import ConfigurationError

__all__ = ["ProvisioningModel"]


@dataclass(frozen=True)
class ProvisioningModel:
    """Init / switch / resize costs as a function of cluster size.

    ``time_scale`` proportionally shrinks every cost; the experiment
    harness sets it to its step-scale so that overhead *ratios*
    (switch time vs training time — the paper's ~1.7%) are preserved
    in scaled-down runs.  Table III itself is produced at scale 1.

    ``bandwidth_factor`` models the node's link quality relative to
    the paper's K80 cloud VMs: every provisioning action pushes jobs,
    configs and checkpoints over the network, so an edge-class worker
    on a thinner link pays proportionally more for init, switch and
    elastic resize.  1.0 (the default) is the calibrated cloud link.
    """

    parallel: bool = True
    time_scale: float = 1.0
    bandwidth_factor: float = 1.0
    # Sequential costs: affine in n (fit to Table III).
    seq_init_base: ClassVar[float] = 46.0
    seq_init_per_worker: ClassVar[float] = 13.9
    seq_switch_base: ClassVar[float] = 15.0
    seq_switch_per_worker: ClassVar[float] = 9.4
    # Parallel costs: affine in log2(n/8) (fit to Table III).
    par_init_base: ClassVar[float] = 90.0
    par_init_per_doubling: ClassVar[float] = 38.0
    par_switch_base: ClassVar[float] = 36.0
    par_switch_per_doubling: ClassVar[float] = 17.0
    # Elastic policy reconfigurations are partial switches.
    resize_fraction: ClassVar[float] = 0.5

    def __post_init__(self):
        if self.bandwidth_factor <= 0.0:
            raise ConfigurationError("bandwidth_factor must be positive")

    def init_time(self, n_workers: int) -> float:
        """Seconds to bring up a fresh training cluster."""
        self._validate(n_workers)
        if self.parallel:
            seconds = self.par_init_base + self.par_init_per_doubling * math.log2(
                n_workers / 8.0
            )
        else:
            seconds = self.seq_init_base + self.seq_init_per_worker * n_workers
        return seconds * self.time_scale * self.bandwidth_factor

    def switch_time(self, n_workers: int) -> float:
        """Seconds to checkpoint, reconfigure and restart all tasks."""
        self._validate(n_workers)
        if self.parallel:
            seconds = (
                self.par_switch_base
                + self.par_switch_per_doubling * math.log2(n_workers / 8.0)
            )
        else:
            seconds = (
                self.seq_switch_base + self.seq_switch_per_worker * n_workers
            )
        return seconds * self.time_scale * self.bandwidth_factor

    def evict_time(self, n_workers: int) -> float:
        """Seconds to drop a worker and rebalance (elastic policy)."""
        return self.resize_fraction * self.switch_time(n_workers)

    def restore_time(self, n_workers: int) -> float:
        """Seconds to re-admit evicted workers (elastic policy)."""
        return self.resize_fraction * self.switch_time(n_workers)

    def _validate(self, n_workers: int) -> None:
        if n_workers < 1:
            raise ConfigurationError("n_workers must be positive")
