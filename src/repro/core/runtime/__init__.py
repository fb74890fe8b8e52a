"""Sync-Switch runtime: profiler, detector, checkpoints, actuators, hooks."""

from repro._lazy import lazy_exports

__all__ = [
    "Checkpoint",
    "CheckpointStore",
    "ElasticTrainingRun",
    "HookManager",
    "JobResult",
    "NodeHook",
    "ParallelActuator",
    "SequentialActuator",
    "StragglerDetector",
    "SyncSwitchController",
    "ThroughputProfiler",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.runtime.actuator": (
            "ParallelActuator",
            "SequentialActuator",
        ),
        "repro.core.runtime.checkpoint": ("Checkpoint", "CheckpointStore"),
        "repro.core.runtime.controller": ("JobResult", "SyncSwitchController"),
        "repro.core.runtime.detector": ("StragglerDetector",),
        "repro.core.runtime.elastic": ("ElasticTrainingRun",),
        "repro.core.runtime.hooks": ("HookManager", "NodeHook"),
        "repro.core.runtime.profiler": ("ThroughputProfiler",),
    },
)
