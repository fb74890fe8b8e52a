"""Tests for straggler schedules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distsim.stragglers import (
    StragglerEvent,
    StragglerSchedule,
    ambient_contention,
    transient_scenario,
)
from repro.errors import ConfigurationError


class TestStragglerEvent:
    def test_end_time(self):
        event = StragglerEvent(worker=0, start=5.0, duration=10.0)
        assert event.end == 15.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StragglerEvent(worker=-1, start=0.0, duration=1.0)
        with pytest.raises(ConfigurationError):
            StragglerEvent(worker=0, start=0.0, duration=0.0)
        with pytest.raises(ConfigurationError):
            StragglerEvent(worker=0, start=0.0, duration=1.0, slow_factor=0.5)
        with pytest.raises(ConfigurationError):
            StragglerEvent(worker=0, start=0.0, duration=1.0, extra_latency=-1)


class TestStragglerSchedule:
    def test_state_outside_event_is_clean(self):
        schedule = StragglerSchedule(
            [StragglerEvent(worker=0, start=10.0, duration=5.0, slow_factor=3.0)]
        )
        assert schedule.state_at(0, 9.9) == (1.0, 0.0)
        assert schedule.state_at(0, 15.0) == (1.0, 0.0)  # end exclusive
        assert schedule.state_at(1, 12.0) == (1.0, 0.0)  # other worker

    def test_state_inside_event(self):
        schedule = StragglerSchedule(
            [
                StragglerEvent(
                    worker=2, start=0.0, duration=10.0,
                    slow_factor=2.0, extra_latency=0.01,
                )
            ]
        )
        assert schedule.state_at(2, 5.0) == (2.0, 0.01)
        assert schedule.is_straggling(2, 5.0)
        assert not schedule.is_straggling(2, 11.0)

    def test_overlapping_events_compound(self):
        schedule = StragglerSchedule(
            [
                StragglerEvent(worker=0, start=0.0, duration=10.0, slow_factor=2.0),
                StragglerEvent(
                    worker=0, start=5.0, duration=10.0,
                    slow_factor=3.0, extra_latency=0.02,
                ),
            ]
        )
        factor, latency = schedule.state_at(0, 7.0)
        assert factor == pytest.approx(6.0)
        assert latency == pytest.approx(0.02)

    def test_active_workers(self):
        schedule = StragglerSchedule(
            [
                StragglerEvent(worker=0, start=0.0, duration=10.0, slow_factor=2.0),
                StragglerEvent(worker=3, start=5.0, duration=10.0, slow_factor=2.0),
            ]
        )
        assert schedule.active_workers(2.0) == {0}
        assert schedule.active_workers(7.0) == {0, 3}
        assert schedule.active_workers(20.0) == set()

    def test_next_clear_time(self):
        schedule = StragglerSchedule(
            [
                StragglerEvent(worker=0, start=0.0, duration=10.0, slow_factor=2.0),
                StragglerEvent(worker=1, start=8.0, duration=10.0, slow_factor=2.0),
            ]
        )
        assert schedule.next_clear_time(5.0) == pytest.approx(18.0)  # chained
        assert schedule.next_clear_time(20.0) is None

    def test_next_clear_time_event_starting_exactly_at_horizon(self):
        """Zero-overlap adjacency: starts are inclusive, so an event
        beginning exactly when the previous one ends keeps chaining."""
        schedule = StragglerSchedule(
            [
                StragglerEvent(worker=0, start=0.0, duration=10.0, slow_factor=2.0),
                StragglerEvent(worker=1, start=10.0, duration=8.0, slow_factor=2.0),
            ]
        )
        # At t=10 the second event is already active (start <= t < end).
        assert schedule.is_straggling(1, 10.0)
        assert schedule.next_clear_time(5.0) == pytest.approx(18.0)

    def test_next_clear_time_multi_link_adjacent_chain(self):
        schedule = StragglerSchedule(
            [
                StragglerEvent(worker=0, start=0.0, duration=5.0, slow_factor=2.0),
                StragglerEvent(worker=1, start=5.0, duration=5.0, slow_factor=2.0),
                StragglerEvent(worker=2, start=10.0, duration=5.0, slow_factor=2.0),
            ]
        )
        assert schedule.next_clear_time(0.0) == pytest.approx(15.0)
        # Queried exactly at the final end, the cluster is clear.
        assert schedule.next_clear_time(15.0) is None

    def test_next_clear_time_at_event_boundaries(self):
        schedule = StragglerSchedule(
            [StragglerEvent(worker=0, start=5.0, duration=5.0, slow_factor=2.0)]
        )
        assert schedule.next_clear_time(4.9) is None  # not yet active
        assert schedule.next_clear_time(5.0) == pytest.approx(10.0)  # inclusive
        assert schedule.next_clear_time(10.0) is None  # end exclusive

    def test_events_for(self):
        late = StragglerEvent(worker=0, start=9.0, duration=1.0, slow_factor=2.0)
        early = StragglerEvent(worker=0, start=1.0, duration=1.0, slow_factor=2.0)
        schedule = StragglerSchedule([late, early])
        assert schedule.events_for(0) == (early, late)  # sorted by start
        assert schedule.events_for(3) == ()

    def test_active_workers_matches_linear_scan(self):
        """The bisect-indexed query must agree with the brute force."""
        rng = np.random.default_rng(42)
        schedule = ambient_contention(6, horizon=300.0, rng=rng)
        for time in np.linspace(0.0, 320.0, 161):
            brute = {
                event.worker
                for event in schedule.events
                if event.start <= time < event.end
            }
            assert schedule.active_workers(float(time)) == brute

    def test_merged_with(self):
        a = StragglerSchedule(
            [StragglerEvent(worker=0, start=0.0, duration=1.0, slow_factor=2.0)]
        )
        b = StragglerSchedule(
            [StragglerEvent(worker=1, start=0.0, duration=1.0, slow_factor=2.0)]
        )
        merged = a.merged_with(b)
        assert len(merged) == 2
        assert len(a) == 1  # original untouched

    @given(
        events=st.lists(
            st.tuples(
                st.integers(0, 2),  # worker
                st.integers(0, 4),  # start: few values, so many ties
                st.integers(1, 4),  # duration
                st.sampled_from((1.0, 1.5, 2.0, 3.0)),  # slow_factor
                st.sampled_from((0.0, 0.01, 0.03)),  # extra_latency
            ),
            max_size=24,
        ),
        query_after=st.integers(0, 24),
    )
    @settings(max_examples=60, deadline=None)
    def test_incremental_add_matches_sort_on_every_insert(
        self, events, query_after
    ):
        """Indexing on first query == re-sorting the bucket on each add.

        The reference keeps every worker's bucket sorted by a stable
        sort after every insert (what ``add`` used to do); the schedule
        is filled incrementally, queried part-way (so later adds land
        on an already-built index) and must order equal-start events
        and compound overlapping ones exactly like the reference.
        """
        events = [
            StragglerEvent(
                worker=worker,
                start=float(start),
                duration=float(duration),
                slow_factor=factor,
                extra_latency=latency,
            )
            for worker, start, duration, factor, latency in events
        ]
        times = [step * 0.5 for step in range(18)]
        reference: dict[int, list[StragglerEvent]] = {}
        incremental = StragglerSchedule()
        for count, event in enumerate(events):
            if count == query_after:
                incremental.state_at(event.worker, 1.0)
            incremental.add(event)
            bucket = reference.setdefault(event.worker, [])
            bucket.append(event)
            bucket.sort(key=lambda e: e.start)
        bulk = StragglerSchedule(events)
        for worker in range(3):
            expected = tuple(reference.get(worker, ()))
            for schedule in (incremental, bulk):
                ordered = schedule.events_for(worker)
                assert len(ordered) == len(expected)
                assert all(a is b for a, b in zip(ordered, expected))
            for time in times:
                factor, latency = 1.0, 0.0
                for event in expected:
                    if event.start <= time < event.end:
                        factor *= event.slow_factor
                        latency += event.extra_latency
                assert incremental.state_at(worker, time) == (factor, latency)
                assert bulk.state_at(worker, time) == (factor, latency)
        for time in times:
            assert incremental.active_workers(time) == bulk.active_workers(time)


class TestGenerators:
    def test_ambient_contention_covers_all_workers(self):
        rng = np.random.default_rng(0)
        schedule = ambient_contention(4, horizon=1000.0, rng=rng)
        workers = {event.worker for event in schedule.events}
        assert workers == {0, 1, 2, 3}

    def test_ambient_events_within_horizon(self):
        rng = np.random.default_rng(1)
        schedule = ambient_contention(2, horizon=500.0, rng=rng)
        assert all(event.start < 500.0 for event in schedule.events)

    @given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_transient_scenario_event_count(self, n_stragglers, occurrences):
        rng = np.random.default_rng(0)
        schedule = transient_scenario(
            n_stragglers, occurrences, latency=0.01,
            window=(0.0, 500.0), rng=rng, n_workers=8,
        )
        assert len(schedule) == n_stragglers * occurrences

    def test_transient_scenario_distinct_workers(self):
        rng = np.random.default_rng(0)
        schedule = transient_scenario(
            3, 2, latency=0.03, window=(0.0, 500.0), rng=rng, n_workers=8
        )
        by_worker = {event.worker for event in schedule.events}
        assert len(by_worker) == 3

    def test_transient_scenario_rejects_too_many(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            transient_scenario(9, 1, 0.01, (0.0, 10.0), rng, n_workers=8)

    def test_ambient_validation(self):
        with pytest.raises(ConfigurationError):
            ambient_contention(0, 100.0, np.random.default_rng(0))
