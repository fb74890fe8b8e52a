"""Discrete-event simulator of a parameter-server GPU cluster.

This subpackage replaces the paper's Google-Cloud testbed.  It has two
halves that the execution engines tie together:

* a *timing* half — per-worker compute-time distributions, barrier
  costs, parameter-server service times and straggler injection, which
  produce the simulated clock, throughput and overhead numbers; and
* a *numeric* half — the sharded parameter server holds a real model
  parameter vector, and every simulated gradient push applies a real
  gradient (computed at the parameter version the worker actually
  pulled), so staleness genuinely affects convergence.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ASPEngine",
    "BSPEngine",
    "CASPEngine",
    "Cluster",
    "ClusterSpec",
    "DSSPEngine",
    "DistributedTrainer",
    "EngineSpec",
    "EventQueue",
    "JobConfig",
    "OSPEngine",
    "SSPEngine",
    "Segment",
    "ShardedParameterServer",
    "SimClock",
    "StragglerEvent",
    "StragglerSchedule",
    "TimingModel",
    "TrainingPlan",
    "TrainingResult",
    "TrainingTelemetry",
    "ambient_contention",
    "engine_spec",
    "is_synchronous",
    "known_protocols",
    "make_engine",
    "precision_rank",
    "synchronous_protocols",
    "timing_for",
    "transient_scenario",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.distsim.cluster": ("Cluster", "ClusterSpec"),
        "repro.distsim.engines": (
            "ASPEngine",
            "BSPEngine",
            "CASPEngine",
            "DSSPEngine",
            "EngineSpec",
            "OSPEngine",
            "SSPEngine",
            "engine_spec",
            "is_synchronous",
            "known_protocols",
            "make_engine",
            "precision_rank",
            "synchronous_protocols",
        ),
        "repro.distsim.events": ("EventQueue", "SimClock"),
        "repro.distsim.job": ("JobConfig", "Segment", "TrainingPlan"),
        "repro.distsim.parameter_server": ("ShardedParameterServer",),
        "repro.distsim.stragglers": (
            "StragglerEvent",
            "StragglerSchedule",
            "ambient_contention",
            "transient_scenario",
        ),
        "repro.distsim.result": ("TrainingResult",),
        "repro.distsim.telemetry": ("TrainingTelemetry",),
        "repro.distsim.timing": ("TimingModel", "timing_for"),
        "repro.distsim.trainer": ("DistributedTrainer",),
    },
)
