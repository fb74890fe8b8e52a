"""Fleet tracing determinism and schema tests.

The observability invariants this file pins:

* tracing is a pure observer — a traced run's summary is bit-identical
  to the untraced run's;
* the event sequence is deterministic in the seed and unaffected by
  the experiment executor's worker-process count;
* emitted traces satisfy the Chrome trace-event schema with the span
  coverage the ``trace-smoke`` CI job requires;
* detail levels nest (``fleet`` events are a subset of ``job``'s);
* every event a job emits lies inside its lifecycle span, whether its
  cell ran at admission or at its finish event.
"""

import pytest

from repro.experiments.fleet import run_traced_fleet
from repro.fleet import FleetConfig, FleetSimulator, simulate_fleet
from repro.obs import trace_categories, validate_chrome_trace

SCALE = 0.004


def traced_run(detail="job", scenario="rush", scheduler="fifo", **kwargs):
    config = FleetConfig(
        scenario=scenario,
        scheduler=scheduler,
        sync_policy="sync-switch",
        scale=SCALE,
        trace_detail=detail,
        **kwargs,
    )
    simulator = FleetSimulator(config)
    summary = simulator.run()
    return summary, simulator.tracer.events, simulator.metrics_payload


def test_traced_summary_bit_identical_to_untraced():
    untraced = simulate_fleet(
        FleetConfig(
            scenario="rush",
            scheduler="fifo",
            sync_policy="sync-switch",
            scale=SCALE,
        )
    )
    traced, _, _ = traced_run()
    assert traced.to_dict() == untraced.to_dict()


def test_same_seed_same_events():
    _, first, _ = traced_run()
    _, second, _ = traced_run()
    assert first == second


def test_executor_process_count_does_not_change_events(tmp_path):
    runs = {}
    for jobs in (1, 4):
        runs[jobs] = run_traced_fleet(
            scenario="rush",
            scheduler="fifo",
            sync_policy="sync-switch",
            scale=SCALE,
            jobs=jobs,
            cache_dir=tmp_path / f"cache-{jobs}",  # no cross-run cache hits
        )
    assert runs[1].events == runs[4].events
    assert runs[1].summary.to_dict() == runs[4].summary.to_dict()


def test_trace_is_schema_valid_with_span_coverage():
    _, events, _ = traced_run()
    assert validate_chrome_trace(events) == []
    categories = trace_categories(events)
    assert len(categories) >= 6
    for expected in ("scheduler", "admission", "job", "segment", "overhead",
                     "eval"):
        assert expected in categories, f"missing category {expected}"


def test_detail_levels_nest():
    _, fleet_events, _ = traced_run(detail="fleet")
    _, job_events, _ = traced_run(detail="job")
    _, update_events, _ = traced_run(detail="update")
    assert len(fleet_events) < len(job_events) < len(update_events)
    # every fleet-level event appears verbatim at the higher details
    for event in fleet_events:
        assert event in job_events
    barrier_like = {
        event["name"] for event in update_events
    } - {event["name"] for event in job_events}
    assert barrier_like & {"barrier", "push"}


def test_preemptive_scenario_traces_without_duplicates():
    # rush, not surge: surge's one 8-worker slot never preempts
    summary, events, _ = traced_run(scheduler="best-fit")
    assert validate_chrome_trace(events) == []
    # exactly one lifecycle span per completed job: a re-projected
    # tail is traced once, by the cell, never by a projection
    lifecycle = [
        event
        for event in events
        if event["ph"] == "X" and event["cat"] in ("job", "search")
        and event["tid"] == 0
    ]
    assert len(lifecycle) == summary.n_jobs - summary.n_rejected
    assert summary.preemptions > 0
    assert "preemption" in trace_categories(events)


def outside_lifecycle(events):
    """Events on a job's pid that lie outside its lifecycle span.

    A job's scoped tracer shifts its cell's job-relative times by the
    admission time, so every ``X``/``i`` event on pid ``p >= 1`` (the
    queue wait aside) falls inside ``job-(p-1)``'s span, whatever the
    order the events were emitted in.  1 us of slack absorbs rounding.
    """
    lifecycles = {
        event["pid"]: (event["ts"], event["ts"] + event["dur"])
        for event in events
        if event["ph"] == "X" and event["tid"] == 0
        and event["name"] == f"job-{event['pid'] - 1}"
    }
    stray = []
    for event in events:
        if event["pid"] < 1 or event["ph"] not in ("X", "i"):
            continue
        if event.get("cat") == "queue":
            continue
        begin, end = lifecycles[event["pid"]]
        last = event["ts"] + event.get("dur", 0.0)
        if event["ts"] < begin - 1.0 or last > end + 1.0:
            stray.append(event)
    return stray


@pytest.mark.parametrize(
    "scheduler", ["fifo", "best-fit"], ids=["cell-at-admission", "cell-at-finish"]
)
def test_job_events_lie_inside_their_lifecycle(scheduler):
    summary, events, _ = traced_run(detail="update", scheduler=scheduler)
    if scheduler == "best-fit":
        assert summary.preemptions > 0
    assert sum(event["pid"] >= 1 for event in events) > summary.n_jobs
    assert outside_lifecycle(events) == []


def test_metrics_payload_timeline():
    _, _, metrics = traced_run(metrics_interval=30.0)
    assert metrics is not None
    assert metrics["interval"] == 30.0
    assert metrics["snapshots"], "expected at least one interval snapshot"
    final = metrics["final"]
    assert final["counters"]["jobs_completed"] > 0
    assert "jct_s" in final["histograms"]


def test_job_records_carry_staleness():
    summary, _, _ = traced_run()
    rows = [record.staleness for record in summary.jobs if record.staleness]
    assert rows, "sync-switch jobs should report staleness percentiles"
    for staleness in rows:
        assert set(staleness) == {"mean", "p50", "p95", "max"}
        assert staleness["p50"] <= staleness["p95"] <= staleness["max"]
    assert summary.staleness_p95 > 0.0
    assert summary.staleness_max >= summary.staleness_p95
