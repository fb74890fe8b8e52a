"""Tests for the N-segment schedule search driven by fleet completions."""

import pytest

from repro.core.search import ScheduleSearch, SearchConfig
from repro.errors import SearchError
from repro.experiments.setups import SETUPS
from repro.fleet.policy_store import JobClass, PolicyStore, policy_from_search
from repro.fleet.tuning import TUNE_BETA, InFleetSearch

CLS = JobClass(setup_index=1, n_workers=8)


def schedule_trial(protocols, fractions, run):
    """Noise-free: accurate when the opener covers >=20% of the budget."""
    accuracy = 0.90 if fractions[0] >= 0.2 else 0.80
    return accuracy, 50.0 + 100.0 * fractions[0]


def fleet_trial(job, run):
    """``schedule_trial`` as seen through a schedule-carrying trial job."""
    return schedule_trial(job.protocols, job.fractions, run)


#: The configuration ``InFleetSearch(runs=2)`` derives for setup 1.
CONFIG = SearchConfig(
    beta=TUNE_BETA,
    max_settings=SETUPS[1].search_max_settings,
    runs_per_setting=2,
    bsp_runs=2,
)


def in_fleet(store, protocols):
    return InFleetSearch(store, 2, protocols=protocols, first_trial_id=100)


class TestEquivalenceWithOfflineScheduleSearch:
    """Completions fed one by one must replay ScheduleSearch exactly."""

    @pytest.mark.parametrize(
        "protocols",
        [("bsp", "asp"), ("bsp", "ssp", "asp"), ("bsp", "dssp"), None],
    )
    def test_same_schedule_target_and_trials(self, protocols, drive_search):
        # No protocols is the two-phase search, in the same form.
        sequence = protocols or ("bsp", "asp")
        offline = ScheduleSearch(schedule_trial, CONFIG, (sequence,)).search()
        store = PolicyStore()
        batches = drive_search(in_fleet(store, protocols), fleet_trial)
        policy = store.lookup(CLS)
        assert policy == policy_from_search(
            CLS, offline, tuned_at=policy.tuned_at
        )
        assert policy.protocols == offline.protocols
        assert policy.fractions == offline.fractions
        assert policy.target_accuracy == offline.target_accuracy
        assert policy.search_cost == pytest.approx(offline.search_time)
        assert [
            (job.protocols, job.fractions, job.percent_override)
            for batch in batches
            for job in batch
        ] == [
            (t.protocols, t.fractions, t.fractions[0] * 100.0)
            for t in offline.trials
        ]

    def test_candidate_prices_match(self):
        """Two sequences whose found schedules train equally fast: each
        is priced at the mean time of its final vector's sessions
        (the opener share walks 0.5, 0.25, 0.125, 0.1875, 0.21875 and
        settles there -> 71.875 s) and the tie goes to the earlier."""
        sequences = (("bsp", "asp"), ("bsp", "ssp", "asp"))
        result = ScheduleSearch(schedule_trial, CONFIG, sequences).search()
        assert [
            (c.protocols, c.fractions[0], c.expected_time)
            for c in result.candidates
        ] == [
            (("bsp", "asp"), 0.21875, 71.875),
            (("bsp", "ssp", "asp"), 0.21875, 71.875),
        ]
        assert result.protocols == ("bsp", "asp")
        assert result.expected_time == 71.875


class TestSessionProtocol:
    def test_opener_batch_first_then_candidates(self, drive_search):
        sequence = ("bsp", "ssp", "asp")
        store = PolicyStore()
        batches = drive_search(
            in_fleet(store, sequence), lambda job, run: (0.9, 100.0)
        )
        assert store.lookup(CLS).target_accuracy == pytest.approx(0.9)
        first, second = batches[0], batches[1]
        assert [job.fractions for job in first] == [(1.0, 0.0, 0.0)] * 2
        # First candidate: boundary 1 at 0.5, boundary 2 pinned at 1.0.
        assert [job.fractions for job in second] == [(0.5, 0.5, 0.0)] * 2
        for job in first + second:
            assert job.kind == "search-trial"
            assert job.protocols == sequence
            assert job.percent_override == job.fractions[0] * 100.0

    def test_done_session_yields_empty_batch(self, drive_search, stream_job):
        store = PolicyStore()
        search = in_fleet(store, ("bsp", "ssp", "asp"))
        batches = drive_search(search, fleet_trial)
        assert len(batches) == 1 + 2 * CONFIG.max_settings
        assert search.open_searches == 0
        assert not store.is_searching(CLS)
        assert len(store.lookup(CLS).fractions) == 3
        assert search.job_admitted(stream_job(job_id=1), now=9.0) == ()

    def test_invalid_sequences_rejected_up_front(self, stream_job):
        """Before the class is marked searching or any trial is issued."""
        store = PolicyStore()
        search = in_fleet(store, ("asp", "bsp"))
        with pytest.raises(SearchError):
            search.job_admitted(stream_job(), now=0.0)
        assert search.open_searches == 0
        assert not store.is_searching(CLS)
