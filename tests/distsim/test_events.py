"""Tests for the simulation clock and event queue."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distsim.events import EventQueue, SimClock
from repro.errors import ConfigurationError


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(2.5)
        assert clock.now == pytest.approx(4.0)

    def test_advance_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            SimClock().advance(-1.0)

    def test_advance_to_moves_forward_only(self):
        clock = SimClock()
        clock.advance_to(5.0)
        assert clock.now == 5.0
        clock.advance_to(3.0)  # no-op
        assert clock.now == 5.0


class TestEventQueue:
    def test_pop_returns_earliest(self):
        queue = EventQueue()
        queue.push(3.0, "c")
        queue.push(1.0, "a")
        queue.push(2.0, "b")
        assert queue.pop() == (1.0, "a")
        assert queue.pop() == (2.0, "b")
        assert queue.pop() == (3.0, "c")

    def test_ties_broken_by_insertion_order(self):
        queue = EventQueue()
        queue.push(1.0, "first")
        queue.push(1.0, "second")
        assert queue.pop()[1] == "first"
        assert queue.pop()[1] == "second"

    def test_empty_queue_errors(self):
        queue = EventQueue()
        with pytest.raises(ConfigurationError):
            queue.pop()

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            EventQueue().push(-0.1, "x")

    def test_bool_and_len(self):
        queue = EventQueue()
        assert not queue
        queue.push(1.0, None)
        assert queue
        assert len(queue) == 1

    @given(
        st.lists(
            st.floats(min_value=0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=50)
    def test_pop_order_is_sorted(self, times):
        queue = EventQueue()
        for time in times:
            queue.push(time, None)
        popped = [queue.pop()[0] for _ in range(len(times))]
        assert popped == sorted(times)
