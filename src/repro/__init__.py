"""Sync-Switch reproduction: hybrid BSP/ASP parameter synchronization.

This package reproduces the system described in "Sync-Switch: Hybrid
Parameter Synchronization for Distributed Deep Learning" (ICDCS 2021).
It is organised in four layers:

``repro.mlcore``
    A from-scratch numpy ML substrate: functional residual-MLP
    classifiers, synthetic CIFAR-like datasets, SGD with momentum and
    piecewise learning-rate decay, convergence metrics.

``repro.distsim``
    A discrete-event simulator of a parameter-server GPU cluster:
    compute/network time models, straggler injection, sharded parameter
    server, and execution engines for the BSP/ASP/SSP/DSSP protocols.
    The engines drive *real* numeric SGD, so gradient staleness has a
    genuine effect on convergence.

``repro.core``
    The paper's contribution: protocol / timing / configuration /
    straggler policies, the offline binary-search timing algorithm, the
    search-cost simulator, and the Sync-Switch runtime (profiler,
    straggler detector, plan runner, controller).

``repro.experiments``
    The evaluation harness: the three experiment setups of Table I and
    one generator per paper table and figure.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ClusterError",
    "ConfigurationError",
    "DivergenceError",
    "ReproError",
    "SearchError",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.errors": (
            "ClusterError",
            "ConfigurationError",
            "DivergenceError",
            "ReproError",
            "SearchError",
        ),
        "repro.version": ("__version__",),
    },
)
