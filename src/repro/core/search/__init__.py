"""Timing and schedule search (Algorithm 1) and its cost analysis."""

from repro._lazy import lazy_exports

__all__ = [
    "OfflineTimingSearch",
    "ProfileModel",
    "ScheduleCandidate",
    "ScheduleSearch",
    "SearchConfig",
    "SearchCostReport",
    "SearchCostSimulator",
    "SearchResult",
    "SearchSetting",
    "TrialOutcome",
    "boundary_fractions",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.search.binary_search": (
            "OfflineTimingSearch",
            "ScheduleCandidate",
            "ScheduleSearch",
            "SearchConfig",
            "SearchResult",
            "TrialOutcome",
            "boundary_fractions",
        ),
        "repro.core.search.cost_model": (
            "ProfileModel",
            "SearchCostReport",
            "SearchCostSimulator",
            "SearchSetting",
        ),
    },
)
