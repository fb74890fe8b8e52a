"""Sync-Switch runtime: profiler, detector and the plan runner."""

from repro._lazy import lazy_exports

__all__ = [
    "ElasticTrainingRun",
    "StragglerDetector",
    "ThroughputProfiler",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.runtime.detector": ("StragglerDetector",),
        "repro.core.runtime.elastic": ("ElasticTrainingRun",),
        "repro.core.runtime.profiler": ("ThroughputProfiler",),
    },
)
