"""Tracer unit tests: event shapes, detail gating, scoping."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.obs import DETAIL_LEVELS, NULL_TRACER, NullTracer, Tracer


def test_detail_levels_are_ordered():
    assert DETAIL_LEVELS == ("fleet", "job", "update")


def test_null_tracer_is_inert_singleton():
    assert isinstance(NULL_TRACER, NullTracer)
    assert not NULL_TRACER.enabled
    NULL_TRACER.span("x", "cat", 0.0, 1.0)
    NULL_TRACER.instant("x", "cat", 0.0)
    NULL_TRACER.counter("x", 0.0, {"v": 1})
    NULL_TRACER.process_name(0, "p")
    NULL_TRACER.thread_name(0, 0, "t")
    assert NULL_TRACER.events == []
    assert not NULL_TRACER.wants("fleet")
    assert NULL_TRACER.scoped(1, 0.0) is NULL_TRACER


def test_tracer_rejects_unknown_detail():
    with pytest.raises(ConfigurationError):
        Tracer("verbose")


def test_span_event_shape_microseconds():
    tracer = Tracer("job")
    tracer.span("seg", "segment", 1.5, 2.0, pid=3, tid=1, args={"a": 1})
    (event,) = tracer.events
    assert event["ph"] == "X"
    assert event["ts"] == pytest.approx(1.5e6)
    assert event["dur"] == pytest.approx(2.0e6)
    assert event["pid"] == 3 and event["tid"] == 1
    assert event["cat"] == "segment"
    assert event["args"] == {"a": 1}


def test_negative_duration_clamped():
    tracer = Tracer("job")
    tracer.span("seg", "segment", 1.0, -0.5)
    assert tracer.events[0]["dur"] == 0


def test_instant_counter_and_metadata_shapes():
    tracer = Tracer("fleet")
    tracer.instant("pass", "scheduler", 2.0, args={"queued": 1})
    tracer.counter("gauges", 2.0, {"queue_depth": 1.0})
    tracer.process_name(4, "job-3")
    tracer.thread_name(4, 1, "training")
    phases = [event["ph"] for event in tracer.events]
    assert phases == ["i", "C", "M", "M"]
    instant = tracer.events[0]
    assert instant["s"] == "t"
    meta = tracer.events[2]
    assert meta["name"] == "process_name"
    assert meta["args"] == {"name": "job-3"}


def test_wants_is_rank_based():
    assert Tracer("fleet").wants("fleet")
    assert not Tracer("fleet").wants("job")
    assert Tracer("job").wants("fleet")
    assert not Tracer("job").wants("update")
    assert Tracer("update").wants("update")


def test_scoped_tracer_shifts_time_and_pins_pid():
    base = Tracer("job")
    scoped = base.scoped(pid=7, offset=10.0)
    scoped.span("seg", "segment", 1.0, 2.0, tid=1)
    scoped.instant("eval", "eval", 3.0)
    scoped.counter("gauges", 4.0, {"v": 1.0}, pid=2)
    scoped.process_name(2, "job-6")
    scoped.thread_name(2, 1, "training")
    assert scoped.events is base.events
    span, instant, counter, process, thread = base.events
    assert span["ts"] == pytest.approx(11.0e6)
    assert span["pid"] == 7
    assert instant["ts"] == pytest.approx(13.0e6)
    assert instant["pid"] == 7
    assert counter["ts"] == pytest.approx(14.0e6)
    assert counter["pid"] == 7
    assert process["pid"] == 7 and process["ts"] == 0
    assert thread["pid"] == 7 and thread["tid"] == 1


def test_scoped_composes_offsets():
    base = Tracer("job")
    inner = base.scoped(pid=2, offset=5.0).scoped(pid=3, offset=1.0)
    inner.instant("x", "eval", 0.0)
    assert base.events[0]["ts"] == pytest.approx(6.0e6)
    assert base.events[0]["pid"] == 3
    # offsets are summed first (start + (o1 + o2)), and an unscoped
    # time keeps every bit, the sign of -0.0 included
    base.scoped(pid=1, offset=0.1).scoped(pid=1, offset=0.2).span(
        "y", "segment", 1.0, 0.0
    )
    base.instant("z", "eval", -0.0)
    assert base.events[1]["ts"] == (1.0 + (0.1 + 0.2)) * 1e6
    assert math.copysign(1.0, base.events[2]["ts"]) == -1.0
