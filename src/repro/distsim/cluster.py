"""Cluster specification and membership (with elastic resizing).

The paper collocates one parameter server and one worker per VM
(Section II-A), so a "cluster of n" means n PS shards and n workers.
The elastic straggler policy (Section IV-B2) temporarily evicts
workers and later restores them; this module tracks that membership.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.codec import coded, decode, encode, validate
from repro.errors import ClusterError, ConfigurationError

__all__ = ["ClusterSpec", "Cluster", "WorkerTier", "default_worker_tiers"]


@dataclass(frozen=True)
class WorkerTier:
    """One homogeneous slice of a heterogeneous worker pool.

    Datacenter pools mix hardware generations and placement domains
    (the fast/slow, cloud-vs-edge mixes of QSync and ACE-Sync):

    * ``speed_factor`` multiplies per-step compute time — realized as a
      permanent straggler slowdown on the tier's workers, so the
      engine's existing straggler handling (BSP barriers bound by the
      slowest worker, ASP progress per worker) prices it correctly;
    * ``bandwidth_factor`` multiplies provisioning costs (init, switch,
      elastic resize push configs and checkpoints over the tier's
      links) via :class:`~repro.distsim.overheads.ProvisioningModel`;
    * ``extra_latency`` adds a per-step communication delay (edge
      links), also carried by the straggler event.

    ``speed_factor`` 1.0 / ``bandwidth_factor`` 1.0 is the calibrated
    cloud baseline; factors are slowdowns, never speedups, so the
    calibration stays an upper bound on per-worker performance.
    """

    name: str = coded(nonempty=True)
    count: int = coded(min=1)
    speed_factor: float = coded(1.0, min=1.0)
    bandwidth_factor: float = coded(1.0, min=1.0)
    extra_latency: float = coded(0.0, min=0.0)

    def __post_init__(self):
        validate(self)

    def to_dict(self) -> dict:
        """Plain-python dict for cache keys and artifacts."""
        return encode(self)

    @classmethod
    def from_dict(cls, data: dict) -> "WorkerTier":
        """Inverse of :meth:`to_dict`."""
        return decode(cls, data, "worker tier")


def default_worker_tiers(pool_size: int) -> tuple[WorkerTier, ...]:
    """Canonical heterogeneous split for trace-scale pools.

    Half the pool is the calibrated cloud baseline, half an edge-class
    tier that steps ~1.35x slower and pays ~1.6x for provisioning
    pushes — in the regime where protocol choice matters per tier
    without drowning the pool in stragglers.
    """
    if pool_size <= 0:
        raise ConfigurationError("pool size must be positive")
    fast = pool_size - pool_size // 2
    slow = pool_size // 2
    tiers = [WorkerTier("fast", fast)]
    if slow > 0:
        tiers.append(
            WorkerTier("slow", slow, speed_factor=1.35, bandwidth_factor=1.6)
        )
    return tuple(tiers)


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of the training cluster."""

    n_workers: int
    gpu: str = "k80"
    region: str = "us-west1"

    def __post_init__(self):
        if self.n_workers <= 0:
            raise ConfigurationError("n_workers must be positive")
        if not self.gpu:
            raise ConfigurationError("gpu type must be non-empty")

    @property
    def n_parameter_servers(self) -> int:
        """PSs are collocated with workers, one per node."""
        return self.n_workers


@dataclass
class Cluster:
    """Mutable cluster membership on top of a :class:`ClusterSpec`."""

    spec: ClusterSpec
    _evicted: set[int] = field(default_factory=set)

    @property
    def all_workers(self) -> tuple[int, ...]:
        """Every provisioned worker id, evicted or not."""
        return tuple(range(self.spec.n_workers))

    @property
    def active_workers(self) -> tuple[int, ...]:
        """Workers currently participating in training."""
        return tuple(
            worker
            for worker in range(self.spec.n_workers)
            if worker not in self._evicted
        )

    @property
    def n_active(self) -> int:
        """Number of participating workers."""
        return self.spec.n_workers - len(self._evicted)

    def evict(self, worker: int) -> None:
        """Remove a worker from training (elastic straggler policy)."""
        if worker not in self.all_workers:
            raise ClusterError(f"worker {worker} does not exist")
        if worker in self._evicted:
            raise ClusterError(f"worker {worker} is already evicted")
        if self.n_active <= 1:
            raise ClusterError("cannot evict the last active worker")
        self._evicted.add(worker)

    def restore(self, worker: int) -> None:
        """Return an evicted worker to the active set."""
        if worker not in self._evicted:
            raise ClusterError(f"worker {worker} is not evicted")
        self._evicted.discard(worker)

    def restore_all(self) -> None:
        """Return every evicted worker (end of the elastic BSP phase)."""
        self._evicted.clear()

    def is_active(self, worker: int) -> bool:
        """Whether ``worker`` currently participates."""
        return (
            0 <= worker < self.spec.n_workers
            and worker not in self._evicted
        )
