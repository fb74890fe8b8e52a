"""Tests for Algorithm 1 (offline timing search)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_search import reference_search

from repro.core.search import OfflineTimingSearch, SearchConfig
from repro.errors import SearchError


def knee_runner(knee=0.0625, good=0.92, bad_slope=0.5, bsp_time=100.0):
    """Synthetic trial runner: accuracy plateaus at/above the knee."""

    def trial(fraction, run_index):
        if fraction >= knee:
            accuracy = good
        else:
            accuracy = good - bad_slope * (knee - fraction)
        time = bsp_time * (0.15 + 0.85 * fraction)
        return accuracy, time

    return trial


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(SearchError):
            SearchConfig(beta=-0.1)
        with pytest.raises(SearchError):
            SearchConfig(max_settings=0)
        with pytest.raises(SearchError):
            SearchConfig(runs_per_setting=0)
        with pytest.raises(SearchError):
            SearchConfig(target_accuracy=None, bsp_runs=0)

    @pytest.mark.parametrize(
        "field, value",
        [("beta", float("nan")), ("beta", float("inf")),
         ("target_accuracy", float("nan")), ("target_accuracy", float("-inf"))],
    )
    def test_non_finite_band_or_target_is_refused(self, field, value):
        """A NaN band would accept no setting: the search would end
        all-BSP and report it as found."""
        with pytest.raises(SearchError, match=f"{field} must be finite"):
            SearchConfig(**{field: value})


class TestOfflineTimingSearch:
    def test_finds_knee_with_five_settings(self):
        """Binary search path 50->25->12.5->6.25->3.125 lands on 6.25%."""
        search = OfflineTimingSearch(
            knee_runner(knee=0.0625),
            SearchConfig(beta=0.01, max_settings=5, runs_per_setting=1,
                         target_accuracy=0.92),
        )
        result = search.search()
        assert result.switch_fraction == pytest.approx(0.0625)

    def test_finds_coarser_knee_with_fewer_settings(self):
        search = OfflineTimingSearch(
            knee_runner(knee=0.125),
            SearchConfig(beta=0.01, max_settings=4, runs_per_setting=1,
                         target_accuracy=0.92),
        )
        assert search.search().switch_fraction == pytest.approx(0.125)

    def test_single_setting_checks_only_50_percent(self):
        calls = []

        def trial(fraction, run_index):
            calls.append(fraction)
            return 0.92, 50.0

        search = OfflineTimingSearch(
            trial,
            SearchConfig(max_settings=1, runs_per_setting=1,
                         target_accuracy=0.92),
        )
        result = search.search()
        assert calls == [0.5]
        assert result.switch_fraction == pytest.approx(0.5)

    def test_estimates_target_from_bsp_runs(self):
        search = OfflineTimingSearch(
            knee_runner(),
            SearchConfig(beta=0.01, max_settings=3, runs_per_setting=1,
                         bsp_runs=3),
        )
        result = search.search()
        assert result.target_accuracy == pytest.approx(0.92)
        bsp_trials = [t for t in result.trials if t.switch_fraction == 1.0]
        assert len(bsp_trials) == 3

    def test_diverged_trials_push_lower_bound_up(self):
        """Accuracy 0 (divergence) must never be accepted."""

        def trial(fraction, run_index):
            if fraction < 0.5:
                return 0.0, 5.0  # diverged: fast failure
            return 0.92, 100.0

        search = OfflineTimingSearch(
            trial,
            SearchConfig(beta=0.01, max_settings=5, runs_per_setting=1,
                         target_accuracy=0.92),
        )
        assert search.search().switch_fraction == pytest.approx(0.5)

    def test_search_time_accumulates_all_sessions(self):
        search = OfflineTimingSearch(
            knee_runner(),
            SearchConfig(beta=0.01, max_settings=2, runs_per_setting=2,
                         bsp_runs=2),
        )
        result = search.search()
        assert result.n_sessions == 2 + 2 * 2
        assert result.search_time == pytest.approx(
            sum(trial.time for trial in result.trials)
        )

    def test_runs_per_setting_averages_noise(self):
        flips = iter([0.92, 0.80, 0.92, 0.92] * 10)

        def noisy_trial(fraction, run_index):
            return next(flips), 10.0

        search = OfflineTimingSearch(
            noisy_trial,
            SearchConfig(beta=0.02, max_settings=1, runs_per_setting=4,
                         target_accuracy=0.92),
        )
        # mean = 0.89 -> outside beta -> candidate rejected -> upper stays 1.0
        assert search.search().switch_fraction == pytest.approx(1.0)

    def test_valid_sessions_counted(self):
        search = OfflineTimingSearch(
            knee_runner(knee=0.0625),
            SearchConfig(beta=0.01, max_settings=5, runs_per_setting=1,
                         target_accuracy=0.92),
        )
        result = search.search()
        # path: 50, 25, 12.5, 6.25 valid; 3.125 invalid
        assert result.valid_sessions == 4

    @given(
        st.floats(min_value=0.02, max_value=0.6),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40)
    def test_result_always_in_unit_interval_and_visited(self, knee, settings_count):
        visited = []

        def trial(fraction, run_index):
            visited.append(fraction)
            accuracy, time = knee_runner(knee=knee)(fraction, run_index)
            return accuracy, time

        search = OfflineTimingSearch(
            trial,
            SearchConfig(beta=0.005, max_settings=settings_count,
                         runs_per_setting=1, target_accuracy=0.92),
        )
        result = search.search()
        assert 0.0 <= result.switch_fraction <= 1.0
        assert result.switch_fraction in set(visited) | {1.0}

    @given(st.floats(min_value=0.02, max_value=0.45))
    @settings(max_examples=30)
    def test_found_fraction_satisfies_accuracy_constraint(self, knee):
        """The returned timing's accuracy must be within beta of target.

        Points slightly below the knee whose accuracy dip is smaller
        than beta are legitimately acceptable, so the invariant is on
        accuracy, not on the knee location itself.
        """
        beta, slope = 0.005, 2.0
        search = OfflineTimingSearch(
            knee_runner(knee=knee, bad_slope=slope),
            SearchConfig(beta=beta, max_settings=6, runs_per_setting=1,
                         target_accuracy=0.92),
        )
        found = search.search().switch_fraction
        accuracy, _ = knee_runner(knee=knee, bad_slope=slope)(found, 0)
        assert abs(accuracy - 0.92) <= beta + 1e-12


#: Accuracies cluster around a plausible target so the beta band is hit
#: from both sides; 0.0 is a diverged session.
ACCURACIES = st.one_of(st.just(0.0), st.floats(min_value=0.85, max_value=0.95))
OUTCOMES = st.tuples(ACCURACIES, st.floats(min_value=1.0, max_value=500.0))


@st.composite
def search_configs(draw):
    supplied = draw(st.booleans())
    return SearchConfig(
        beta=draw(st.floats(min_value=0.0, max_value=0.05)),
        max_settings=draw(st.integers(min_value=1, max_value=6)),
        runs_per_setting=draw(st.integers(min_value=1, max_value=4)),
        target_accuracy=draw(ACCURACIES) if supplied else None,
        bsp_runs=0 if supplied else draw(st.integers(min_value=1, max_value=4)),
    )


class TestAgainstAppendixBReference:
    """The production coroutine vs the naive transcription of
    Appendix B (``reference_search.py``): they share no code."""

    @given(search_configs(), st.lists(OUTCOMES, min_size=1, max_size=28))
    @settings(max_examples=200, deadline=None)
    def test_same_trial_stream_policy_and_cost(self, config, table):
        def replay(calls):
            """The k-th session trained gets the table's k-th outcome."""

            def trial(fraction, run_index):
                calls.append((fraction, run_index))
                return table[(len(calls) - 1) % len(table)]

            return trial

        asked, expected = [], []
        found = OfflineTimingSearch(replay(asked), config).search()
        reference = reference_search(
            replay(expected),
            beta=config.beta,
            max_settings=config.max_settings,
            runs_per_setting=config.runs_per_setting,
            target_accuracy=config.target_accuracy,
            bsp_runs=config.bsp_runs,
        )
        assert asked == expected
        assert found.switch_fraction == reference.switch_fraction
        assert found.switch_percent == reference.switch_fraction * 100.0
        assert found.target_accuracy == reference.target_accuracy
        assert [
            (t.switch_fraction, t.run_index, t.accuracy, t.time, t.valid)
            for t in found.trials
        ] == reference.trials
        assert found.search_time == reference.search_time
        assert found.valid_sessions == reference.valid_sessions
        # The schedule form of every two-phase trial is (f, 1 - f).
        assert found.protocols == ("bsp", "asp")
        assert all(
            t.protocols == ("bsp", "asp")
            and t.fractions == (t.switch_fraction, 1.0 - t.switch_fraction)
            for t in found.trials
        )
