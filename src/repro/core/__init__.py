"""Sync-Switch: the paper's contribution.

``repro.core.policies``
    Protocol order (BSP then ASP), switch-timing, hyper-parameter
    configuration, and online straggler policies.

``repro.core.runtime``
    The system half of Fig. 9: profiler, straggler detector,
    the :class:`~repro.core.runtime.elastic.ElasticTrainingRun` that
    ties policies to the execution substrate and the one-shot
    :class:`~repro.core.runtime.controller.SyncSwitchController` around it.

``repro.core.search``
    The offline binary-search timing algorithm (Algorithm 1) and the
    Monte-Carlo search-cost simulator behind Tables II/IV-VI and
    Fig. 16.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ConfigurationPolicy",
    "ElasticPolicy",
    "GreedyPolicy",
    "OfflineTimingSearch",
    "PolicyManager",
    "ProtocolSchedule",
    "SearchCostSimulator",
    "SearchSetting",
    "StragglerDetector",
    "SyncSwitchController",
    "ThroughputProfiler",
    "TimingPolicy",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.policies": (
            "ConfigurationPolicy",
            "ElasticPolicy",
            "GreedyPolicy",
            "PolicyManager",
            "ProtocolSchedule",
            "TimingPolicy",
        ),
        "repro.core.runtime": (
            "StragglerDetector",
            "SyncSwitchController",
            "ThroughputProfiler",
        ),
        "repro.core.search": (
            "OfflineTimingSearch",
            "SearchCostSimulator",
            "SearchSetting",
        ),
    },
)
