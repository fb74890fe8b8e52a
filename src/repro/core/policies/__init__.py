"""Sync-Switch policy objects (protocol, timing, configuration, straggler)."""

from repro._lazy import lazy_exports

__all__ = [
    "MOMENTUM_MODES",
    "BaselinePolicy",
    "ConfigurationPolicy",
    "ElasticPolicy",
    "GreedyPolicy",
    "PolicyManager",
    "ProtocolSchedule",
    "StragglerPolicy",
    "TimingPolicy",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.policies.config": (
            "ConfigurationPolicy",
            "MOMENTUM_MODES",
        ),
        "repro.core.policies.manager": ("PolicyManager",),
        "repro.core.policies.protocol": ("ProtocolSchedule",),
        "repro.core.policies.straggler": (
            "BaselinePolicy",
            "ElasticPolicy",
            "GreedyPolicy",
            "StragglerPolicy",
        ),
        "repro.core.policies.timing": ("TimingPolicy",),
    },
)
