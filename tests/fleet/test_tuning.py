"""Tests for Algorithm 1 driven by fleet job completions (two-phase).

:class:`InFleetSearch` is handed trial completions by hand here — no
simulator — and checked against the closed loop
(:class:`OfflineTimingSearch`), which ``tests/core`` checks against the
Appendix B reference.
"""

import pytest

from repro.core.search import OfflineTimingSearch, SearchConfig
from repro.core.search.binary_search import TrialBatch, search_steps
from repro.experiments.fleet import run_traced_fleet
from repro.experiments.setups import SETUPS
from repro.fleet.policy_store import JobClass, PolicyStore, policy_from_search
from repro.fleet.tuning import TUNE_BETA, InFleetSearch

CLS = JobClass(setup_index=1, n_workers=8)


def deterministic_trial(fraction, run):
    """Noise-free trial: accurate above 0.2, fast below 1.0."""
    accuracy = 0.90 if fraction >= 0.2 else 0.80
    return accuracy, 50.0 + 100.0 * fraction


def fleet_trial(trial):
    """``trial(fraction, run)`` as seen through a two-phase trial job."""
    return lambda job, run: trial(job.fractions[0], run)


#: The configuration ``InFleetSearch(runs=2)`` derives for setup 1.
CONFIG = SearchConfig(
    beta=TUNE_BETA,
    max_settings=SETUPS[1].search_max_settings,
    runs_per_setting=2,
    bsp_runs=2,
)


def in_fleet(store=None, runs=2):
    return InFleetSearch(
        store if store is not None else PolicyStore(),
        runs,
        protocols=None,
        first_trial_id=100,
    )


class TestEquivalenceWithOfflineSearch:
    """Completions fed one by one must replay the closed loop exactly."""

    def test_same_policy_target_and_trials(self, drive_search):
        offline = OfflineTimingSearch(deterministic_trial, CONFIG).search()
        store = PolicyStore()
        batches = drive_search(
            in_fleet(store), fleet_trial(deterministic_trial)
        )
        policy = store.lookup(CLS)
        assert policy == policy_from_search(
            CLS, offline, tuned_at=policy.tuned_at
        )
        assert policy.percent == offline.switch_percent
        assert policy.target_accuracy == offline.target_accuracy
        assert policy.search_cost == pytest.approx(offline.search_time)
        assert [
            job.percent_override for batch in batches for job in batch
        ] == [trial.switch_fraction * 100.0 for trial in offline.trials]

    def test_supplied_target_skips_bsp_runs(self):
        config = SearchConfig(
            beta=0.05, max_settings=3, runs_per_setting=1,
            target_accuracy=0.90,
        )
        offline = OfflineTimingSearch(deterministic_trial, config).search()
        steps = search_steps(config)
        batch = next(steps)
        # no BSP batch: straight to candidates
        assert batch == TrialBatch(("bsp", "asp"), (0.5, 0.5), 1)
        with pytest.raises(StopIteration) as finished:
            while True:
                batch = steps.send([deterministic_trial(batch.fractions[0], 0)])
        result = finished.value.value
        assert result.switch_fraction == offline.switch_fraction
        assert result.n_sessions == offline.n_sessions == 3


class TestSessionProtocol:
    def test_bsp_batch_first_then_candidates(self, drive_search):
        store = PolicyStore()
        batches = drive_search(in_fleet(store), lambda job, run: (0.9, 100.0))
        assert store.lookup(CLS).target_accuracy == pytest.approx(0.9)
        first, second = batches[0], batches[1]
        assert [job.percent_override for job in first] == [100.0, 100.0]
        assert [job.percent_override for job in second] == [50.0, 50.0]
        assert [job.job_id for job in first + second] == [100, 101, 102, 103]
        for job in first + second:
            assert job.kind == "search-trial"
            assert (job.setup_index, job.n_workers) == (1, 8)
            # the trial carries its N=2 schedule; the override pins
            # its segment-0 share
            fraction = job.percent_override / 100.0
            assert job.protocols == ("bsp", "asp")
            assert job.fractions == (fraction, 1.0 - fraction)

    def test_done_session_yields_empty_batch(self, drive_search, stream_job):
        store = PolicyStore()
        search = in_fleet(store)
        batches = drive_search(search, fleet_trial(deterministic_trial))
        assert len(batches) == 1 + CONFIG.max_settings
        assert search.open_searches == 0
        assert not store.is_searching(CLS)
        policy = store.lookup(CLS)
        fraction = policy.percent / 100.0
        assert policy.fractions == (fraction, 1.0 - fraction)
        # The class is tuned: a recurrence starts no second search.
        assert search.job_admitted(stream_job(job_id=1), now=9.0) == ()

    def test_record_order_within_batch_is_irrelevant(self, drive_search):
        def noisy(fraction, run):
            accuracy = (0.92 if run == 0 else 0.88) if fraction >= 0.2 else 0.8
            return accuracy, 50.0 + run

        forward, backward = PolicyStore(), PolicyStore()
        asked_f = drive_search(in_fleet(forward), fleet_trial(noisy))
        asked_b = drive_search(
            in_fleet(backward), fleet_trial(noisy), order=reversed
        )
        assert [[job.percent_override for job in batch] for batch in asked_f] == [
            [job.percent_override for job in batch] for batch in asked_b
        ]
        # Same policy and total cost either way (the mean test is
        # order-free; only per-trial run indices may swap).
        assert forward.lookup(CLS).percent == backward.lookup(CLS).percent
        assert forward.lookup(CLS).search_cost == pytest.approx(
            backward.lookup(CLS).search_cost
        )


@pytest.mark.parametrize("protocols", [None, ("bsp", "ssp", "asp")])
def test_search_instants_of_a_traced_tuned_cell(protocols):
    """Names, order and ``args`` keys of the ``search`` lane's instants."""
    run = run_traced_fleet(
        scenario="recurring", scheduler="fifo", n_jobs=5, scale=0.002,
        tune=True, tune_runs=2, protocols=protocols, cache_dir="off",
    )
    instants = [
        event
        for event in run.events
        if event.get("cat") == "search" and event["ph"] == "i"
    ]
    boundaries = 1 if protocols is None else len(protocols) - 1
    batches = 1 + boundaries * SETUPS[1].search_max_settings
    assert [event["name"] for event in instants] == (
        ["search-begin"] + ["search-trial-done"] * 2 * batches
        + ["search-complete"]
    )
    begin, *trials, complete = instants
    assert begin["args"] == {"setup": 1, "n_workers": 8}
    for event in trials:
        assert list(event["args"]) == [
            "protocols", "fractions", "accuracy", "awaiting"
        ]
        assert sum(event["args"]["fractions"]) == pytest.approx(1.0)
    assert {event["args"]["protocols"] for event in trials} == {
        "+".join(protocols or ("bsp", "asp"))
    }
    if protocols is None:
        assert [event["args"]["fractions"] for event in trials[:4]] == [
            [1.0, 0.0], [1.0, 0.0], [0.5, 0.5], [0.5, 0.5]
        ]
    # Every batch of two counts down to 0 before the next one opens.
    assert [event["args"]["awaiting"] for event in trials] == [1, 0] * batches
    assert list(complete["args"]) == ["percent"]
    assert complete["ts"] == trials[-1]["ts"]
    [policy] = run.summary.tuning
    assert complete["args"]["percent"] == policy["percent"]
