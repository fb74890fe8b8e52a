"""Tests for the N-segment schedule search (coordinate-descent)."""

import math

import pytest
from reference_search import reference_search

from repro.core.search import ScheduleSearch, SearchConfig, boundary_fractions
from repro.core.search.binary_search import (
    TrialBatch,
    pick_best_schedule,
    search_steps,
    validate_sequences,
)
from repro.errors import SearchError


def two_phase_trial(fraction, run):
    """Knee at 0.25: accurate at/above, degraded below."""
    accuracy = 0.92 if fraction >= 0.25 else 0.80
    return accuracy, 50.0 + 100.0 * fraction


def schedule_trial(protocols, fractions, run):
    """Schedule-aware knee: first segment carries the accuracy."""
    return two_phase_trial(fractions[0], run)


CONFIG = SearchConfig(beta=0.01, max_settings=4, runs_per_setting=1, bsp_runs=2)


class TestBoundaryFractions:
    def test_telescopes_with_implicit_outer_bounds(self):
        assert boundary_fractions([0.25, 0.75]) == (0.25, 0.5, 0.25)

    def test_empty_boundaries_is_single_segment(self):
        assert boundary_fractions([]) == (1.0,)

    def test_all_ones_is_opener_only(self):
        assert boundary_fractions([1.0, 1.0]) == (1.0, 0.0, 0.0)

    def test_dyadic_boundaries_are_bit_exact(self):
        fractions = boundary_fractions([0.0625, 0.5])
        assert sum(fractions) == 1.0
        assert fractions == (0.0625, 0.4375, 0.5)


class TestValidateSequences:
    def test_known_monotone_sequences_pass(self):
        assert validate_sequences((("bsp", "ssp", "asp"),)) == (
            ("bsp", "ssp", "asp"),
        )

    def test_reversed_precision_rejected(self):
        with pytest.raises(SearchError):
            validate_sequences((("asp", "bsp"),))

    def test_repeated_protocol_rejected(self):
        with pytest.raises(SearchError):
            validate_sequences((("bsp", "bsp"),))

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SearchError):
            validate_sequences((("bsp", "allreduce"),))

    def test_empty_rejected(self):
        with pytest.raises(SearchError):
            validate_sequences(())
        with pytest.raises(SearchError):
            validate_sequences(((),))

    def test_mixed_openers_rejected(self):
        """All candidates must share the opener that sets the target."""
        with pytest.raises(SearchError):
            validate_sequences((("bsp", "asp"), ("osp", "asp")))

    def test_new_engines_are_schedulable(self):
        validate_sequences((("osp", "casp"),))
        validate_sequences((("bsp", "ssp", "casp"),))


def reference(config):
    return reference_search(
        two_phase_trial,
        beta=config.beta,
        max_settings=config.max_settings,
        runs_per_setting=config.runs_per_setting,
        target_accuracy=config.target_accuracy,
        bsp_runs=config.bsp_runs,
    )


class TestTwoPhaseSpecialCase:
    """N=2 bsp,asp must reproduce the two-phase Algorithm 1 verbatim
    (the Appendix B reference, ``reference_search.py``)."""

    def test_same_trial_stream_and_result(self):
        offline = reference(CONFIG)
        schedule = ScheduleSearch(schedule_trial, CONFIG).search()
        assert schedule.protocols == ("bsp", "asp")
        assert schedule.switch_fraction == offline.switch_fraction
        assert schedule.fractions[0] == offline.switch_fraction
        assert schedule.target_accuracy == offline.target_accuracy
        assert schedule.search_time == pytest.approx(offline.search_time)
        assert [
            (t.fractions[0], t.run_index, t.accuracy, t.time, t.valid)
            for t in schedule.trials
        ] == offline.trials

    def test_supplied_target_skips_opener_runs(self):
        config = SearchConfig(
            beta=0.01, max_settings=3, runs_per_setting=1,
            target_accuracy=0.92,
        )
        offline = reference(config)
        schedule = ScheduleSearch(schedule_trial, config).search()
        assert schedule.fractions[0] == offline.switch_fraction
        assert schedule.n_sessions == len(offline.trials) == 3


class TestSearchSteps:
    """The coroutine protocol: batches out, outcome lists in."""

    def test_three_segment_batch_stream(self):
        """Hand-computed: knee at 0.25 on the opener share only, so
        boundary 1 walks 0.5, 0.25, 0.125, 0.1875 and settles on 0.25;
        boundary 2 then halves down from 1.0 inside [0.25, 1]."""
        steps = search_steps(CONFIG, (("bsp", "ssp", "asp"),))
        sequence = ("bsp", "ssp", "asp")
        asked = [next(steps)]
        try:
            while True:
                batch = asked[-1]
                asked.append(
                    steps.send(
                        [
                            schedule_trial(batch.protocols, batch.fractions, run)
                            for run in range(batch.count)
                        ]
                    )
                )
        except StopIteration as finished:
            result = finished.value
        assert asked == [
            TrialBatch(sequence, (1.0, 0.0, 0.0), 2),
            TrialBatch(sequence, (0.5, 0.5, 0.0), 1),
            TrialBatch(sequence, (0.25, 0.75, 0.0), 1),
            TrialBatch(sequence, (0.125, 0.875, 0.0), 1),
            TrialBatch(sequence, (0.1875, 0.8125, 0.0), 1),
            TrialBatch(sequence, (0.25, 0.375, 0.375), 1),
            TrialBatch(sequence, (0.25, 0.1875, 0.5625), 1),
            TrialBatch(sequence, (0.25, 0.09375, 0.65625), 1),
            TrialBatch(sequence, (0.25, 0.046875, 0.703125), 1),
        ]
        assert result.fractions == (0.25, 0.046875, 0.703125)
        assert result.n_sessions == 10
        assert result.valid_sessions == 2 + 2 + 4

    def test_invalid_sequences_rejected_before_the_first_batch(self):
        """At the call, not at the first ``next()``."""
        with pytest.raises(SearchError):
            search_steps(CONFIG, (("asp", "bsp"),))

    def test_single_protocol_sequence_has_nothing_to_search(self):
        steps = search_steps(CONFIG, (("bsp",),))
        assert next(steps) == TrialBatch(("bsp",), (1.0,), 2)
        with pytest.raises(StopIteration) as finished:
            steps.send([(0.9, 100.0), (0.9, 100.0)])
        assert finished.value.value.fractions == (1.0,)
        assert finished.value.value.expected_time == 100.0


class TestCoordinateDescent:
    def test_three_segment_schedule_found(self):
        """Each boundary gets its own halving run in [prev, 1.0]."""

        def trial(protocols, fractions, run):
            # Accurate iff >=25% precise opener AND the tail (last
            # segment) covers at least half the budget.
            bsp = fractions[0]
            tail = fractions[-1]
            good = bsp >= 0.25 and (len(fractions) == 1 or tail <= 0.75)
            accuracy = 0.92 if good else 0.80
            time = 50.0 + 100.0 * (1.0 - tail)
            return accuracy, time

        result = ScheduleSearch(
            trial, CONFIG, sequences=(("bsp", "ssp", "asp"),)
        ).search()
        assert result.protocols == ("bsp", "ssp", "asp")
        assert len(result.fractions) == 3
        assert sum(result.fractions) == pytest.approx(1.0)
        assert result.fractions[0] >= 0.25
        # Boundaries are monotone: every segment is non-negative.
        assert all(value >= 0.0 for value in result.fractions)

    def test_best_sequence_wins_on_time(self):
        """Candidate enumeration prices each sequence's final vector."""

        def trial(protocols, fractions, run):
            accuracy = 0.92 if fractions[0] >= 0.25 else 0.80
            # The 3-segment sequence is strictly faster when accurate.
            time = 100.0 if len(protocols) == 3 else 200.0
            return accuracy, time

        result = ScheduleSearch(
            trial,
            CONFIG,
            sequences=(("bsp", "asp"), ("bsp", "ssp", "asp")),
        ).search()
        assert result.protocols == ("bsp", "ssp", "asp")
        assert len(result.candidates) == 2
        labels = {candidate.protocols for candidate in result.candidates}
        assert labels == {("bsp", "asp"), ("bsp", "ssp", "asp")}

    def test_never_good_schedule_prices_with_opener_fallback(self):
        def trial(protocols, fractions, run):
            return (0.92 if fractions == (1.0, 0.0) else 0.5), 100.0

        result = ScheduleSearch(trial, CONFIG).search()
        # No candidate setting was ever accepted: boundary stays at 1.0
        # (all-opener) and the price falls back to the opener-run mean.
        assert result.fractions == (1.0, 0.0)
        assert result.expected_time == pytest.approx(100.0)


class TestPickBestSchedule:
    def test_fallback_is_infinite_without_opener_runs(self):
        best, prices = pick_best_schedule(
            (("bsp", "asp"),), ((1.0, 0.0),), [], None
        )
        assert best == 0
        assert prices[0] == math.inf

    def test_ties_break_toward_earlier_sequence(self):
        sequences = (("bsp", "asp"), ("bsp", "ssp"))
        finals = ((0.5, 0.5), (0.5, 0.5))
        best, prices = pick_best_schedule(sequences, finals, [], 10.0)
        assert best == 0
        assert prices == (10.0, 10.0)
