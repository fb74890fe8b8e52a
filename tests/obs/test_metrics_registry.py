"""MetricsRegistry unit tests: snapshots, histograms, the null object."""

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    DEFAULT_METRICS_INTERVAL,
    NULL_METRICS,
    MetricsRegistry,
    NullMetricsRegistry,
    Tracer,
)


def test_null_registry_is_inert():
    assert isinstance(NULL_METRICS, NullMetricsRegistry)
    assert not NULL_METRICS.enabled
    NULL_METRICS.inc("x")
    NULL_METRICS.set_gauge("g", 1.0)
    NULL_METRICS.observe("h", 2.0)
    NULL_METRICS.maybe_snapshot(100.0, None)
    assert NULL_METRICS.payload() == {}


def test_default_interval():
    assert MetricsRegistry().interval == DEFAULT_METRICS_INTERVAL


def test_counters_gauges_histograms_in_payload():
    registry = MetricsRegistry(interval=10.0)
    registry.inc("jobs", 2)
    registry.inc("jobs")
    registry.set_gauge("queue", 4.0)
    for value in (1.0, 2.0, 3.0, 4.0):
        registry.observe("delay", value)
    payload = registry.payload(now=5.0)
    final = payload["final"]
    assert final["counters"]["jobs"] == 3
    assert final["gauges"]["queue"] == 4.0
    histogram = final["histograms"]["delay"]
    assert histogram["count"] == 4
    assert histogram["mean"] == pytest.approx(2.5)
    assert histogram["max"] == 4.0
    assert histogram["p50"] == 2.0
    assert payload["interval"] == 10.0


def test_snapshots_stamp_interval_boundaries():
    registry = MetricsRegistry(interval=10.0)
    registry.set_gauge("queue", 1.0)
    registry.maybe_snapshot(3.0, None)  # before the first boundary
    assert registry.payload(3.0)["snapshots"] == []
    registry.maybe_snapshot(25.0, None)  # crosses t=10 and t=20
    snapshots = registry.payload(25.0)["snapshots"]
    assert [snapshot["t"] for snapshot in snapshots] == [10.0, 20.0]
    assert snapshots[0]["gauges"]["queue"] == 1.0


def test_snapshot_emits_counter_tracks_into_tracer():
    registry = MetricsRegistry(interval=5.0)
    tracer = Tracer("fleet")
    registry.set_gauge("queue", 2.0)
    registry.inc("jobs")
    registry.maybe_snapshot(6.0, tracer)
    counters = [event for event in tracer.events if event["ph"] == "C"]
    assert counters
    assert all(event["cat"] == "metric" for event in counters)
    assert all(event["ts"] == pytest.approx(5.0e6) for event in counters)


def test_invalid_interval_rejected():
    with pytest.raises(ConfigurationError):
        MetricsRegistry(interval=0.0)


@pytest.mark.parametrize(
    "values, p50, p95",
    [
        # f·n is an odd integer (0.5·2 = 1, 0.95·20 = 19): the cases
        # a round-half-to-even rank puts one place too high.
        ([2.0, 1.0], 1.0, 2.0),
        ([float(value) for value in range(20, 0, -1)], 10.0, 19.0),
    ],
)
def test_histogram_percentiles_are_nearest_rank(values, p50, p95):
    from repro.fleet import percentile

    registry = MetricsRegistry(interval=10.0)
    for value in values:
        registry.observe("jct_s", value)
    histogram = registry.payload(now=0.0)["final"]["histograms"]["jct_s"]
    assert (histogram["p50"], histogram["p95"]) == (p50, p95)
    # One rank rule: the fleet's JCT p95 is the same function.
    assert percentile(values, 0.50) == p50
    assert percentile(values, 0.95) == p95
