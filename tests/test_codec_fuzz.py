"""Structural fuzzer for every durable format (``repro.codec``).

Two properties, both driven through the real entry points:

* **hostile in** — a valid trace file, policy-store file or cache blob
  takes one or two mutations and goes through ``main([...])``
  in-process.  A mutation this module knows to be invalid (its own
  small schema knowledge below, independent of the codec's tables) must
  end as exit 2 with exactly one ``error: <what> <path>: ...: expected
  ..., got ...`` line — or, for a cache blob, as a clean recompute:
  stdout equal to the unmutated run's and the blob whole again.  A
  mutation that may be legal (an older-shape payload, a huge but finite
  number, a ``null``) must simply not crash.
* **bytes out** — for objects from the real generators (``trace_stream``,
  a finished fleet simulation, a trained result, a populated store),
  ``from_dict(to_dict(x)) == x`` and ``to_dict(x)`` equals the dict the
  hand-written codecs used to build, key order included.

CI runs this file a second time under the ``deep`` hypothesis profile
(tests/conftest.py: five times the examples) with a fixed seed.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.distsim.cluster import WorkerTier, default_worker_tiers
from repro.distsim.result import TrainingResult
from repro.errors import ConfigurationError
from repro.experiments.fleet import TracedFleetRun, run_traced_fleet
from repro.fleet import FleetConfig, simulate_fleet
from repro.fleet.metrics import FleetSummary, JobRecord
from repro.fleet.policy_store import ClassPolicy, JobClass, PolicyStore
from repro.fleet.workload import (
    FLEET_SCENARIOS,
    TRACE_SCENARIOS,
    JobRequest,
    poisson_stream,
    trace_stream,
)

SCALE = "0.001"
NAN, INF = float("nan"), float("inf")

#: Examples per property: the default profile has 100 examples, the
#: ``deep`` one 500, and every budget below scales with that ratio.
DEPTH = max(1, settings.default.max_examples // 100)


def budget(examples: int):
    return settings(
        max_examples=examples * DEPTH,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )


# ----------------------------------------------------------------------
# what this module knows about the formats (not read from the tables)
# ----------------------------------------------------------------------

#: Keys whose values are opaque rows: mutated as a whole, never inside.
OPAQUE = {"segment_summary", "staleness", "allocations", "tuning", "tiers",
          "events", "metrics"}

#: Integer-typed keys (a 2.5 there is invalid; elsewhere an integer may
#: stand for a float).
INTEGER = {
    "job_id", "setup_index", "n_workers", "seed", "count", "version",
    "total_steps", "completed_steps", "diverged_step", "eval_steps",
    "loss_steps", "switch_count", "images_processed", "demand",
    "preemptions", "restores", "images", "pool_size", "n_jobs",
    "diverged_jobs", "n_search_jobs", "n_rejected", "n_degraded",
    "n_deadline_jobs", "n_trials", "recurrences", "breakeven_recurrence",
    "realized_service_count",
}

#: Keys where a negative number / a non-finite one is legal.
NEGATIVE_OK = {"seed", "realized_savings", "loss_values", "final_loss"}
NONFINITE_OK = {"final_loss"}

#: Keys an older payload may lack, per format (the class has a default).
REQUEST_DEFAULTS = {
    "setup_index", "n_workers", "sync_policy", "deadline", "kind",
    "percent_override", "protocols", "fractions", "tier", "steps_scale",
}
TIER_DEFAULTS = {"speed_factor", "bandwidth_factor", "extra_latency"}
STORE_DEFAULTS = {"scale", "classes", "protocols", "fractions"}
SUMMARY_DEFAULTS = {
    # JobRecord
    "preemptions", "restores", "accuracy", "diverged", "completed_steps",
    "images", "kind", "deadline", "tuned", "degraded", "outcome",
    "allocations", "staleness", "tier",
    # FleetSummary
    "n_search_jobs", "search_time", "n_rejected", "n_degraded",
    "n_deadline_jobs", "slo_attainment", "tuning", "staleness_p50",
    "staleness_p95", "staleness_max", "tiers",
    # TracedFleetRun
    "metrics",
}

#: A 1e308 here is legal and asks for 1e308 training steps.
HUGE_SKIP = {"steps_scale"}


def sites(payload, path=()):
    """Every mutable place the tables reach: ``(container, key, path)``."""
    found = []
    if isinstance(payload, dict):
        for key, value in payload.items():
            found.append((payload, key, path + (key,)))
            if key not in OPAQUE:
                found.extend(sites(value, path + (key,)))
    elif isinstance(payload, list):
        for index, value in enumerate(payload[:3]):
            found.append((payload, index, path + (index,)))
            found.extend(sites(value, path + (index,)))
    return found


def key_of(path) -> str:
    """The field name a path ends in (list items take their list's)."""
    return next((part for part in reversed(path) if isinstance(part, str)), "")


def hostile_values(original, key: str) -> list:
    """Values no table may accept where ``original`` stood under ``key``."""
    if original is None:
        return [True] + ([] if key in NONFINITE_OK else [NAN])
    if isinstance(original, bool):
        return ["no", 0, 2.5, []]
    if isinstance(original, (int, float)):
        values = [True, "x", [], {}]
        if key not in NONFINITE_OK:
            values += [NAN, INF, -INF]
        if key not in NEGATIVE_OK:
            values.append(-1)
        if key in INTEGER:
            values.append(2.5)
        return values
    if isinstance(original, str):
        return [0, True, [], {}, 2.5]
    if isinstance(original, list):
        return ["ab", 0, True, {}]
    return ["ab", 0, True, []]


ABSENT = object()


def has(container, key) -> bool:
    if isinstance(container, dict):
        return key in container
    return isinstance(key, int) and key < len(container)


def reaches(payload, path) -> bool:
    """Whether ``path`` exists in ``payload`` (an earlier edit may have
    created the place being edited)."""
    for part in path:
        if not isinstance(payload, (dict, list)) or not has(payload, part):
            return False
        payload = payload[part]
    return True


@st.composite
def mutations(draw, payload, defaulted=frozenset()):
    """``(mutated bytes, strict)``: one or two mutations of ``payload``.

    ``defaulted`` names the keys this format may lack; ``strict`` says
    at least one mutation is invalid for certain.
    """
    base, payload = payload, copy.deepcopy(payload)
    marks = []  # (container, key, value | ABSENT) of each invalid edit
    for _ in range(draw(st.integers(1, 2))):
        if not sites(payload):
            break  # the first edit dropped the only key
        container, key, path = draw(st.sampled_from(sites(payload)))
        name = key_of(path)
        op = draw(st.sampled_from(["swap", "drop", "add", "huge", "null"]))
        if op == "drop" and isinstance(key, str):
            del container[key]
            if name not in defaulted and reaches(base, path):
                marks.append((container, key, ABSENT))
        elif op == "add" and isinstance(container, dict):
            container["bogus_" + name] = draw(st.sampled_from([0, None, "x"]))
            marks.append((container, "bogus_" + name, container["bogus_" + name]))
        elif op == "huge" and name not in HUGE_SKIP:
            container[key] = 1e308
        elif op == "null" or not reaches(base, path):
            container[key] = None
        else:
            # Hostile for the type the *unmutated* payload holds there.
            original = base
            for part in path:
                original = original[part]
            container[key] = draw(
                st.sampled_from(hostile_values(original, name))
            )
            marks.append((container, key, container[key]))
    # The second edit may have removed or overwritten the first.
    live = {id(container) for container, _key, _path in sites(payload)}

    def holds(container, key, value) -> bool:
        if id(container) not in live:
            return False
        if value is ABSENT:
            return key not in container
        return has(container, key) and container[key] is value

    strict = any(holds(*mark) for mark in marks)
    text = json.dumps(payload)
    cut = draw(st.sampled_from(["whole"] * 8 + ["truncated", "non-utf8"]))
    if cut == "truncated":
        return text[: draw(st.integers(1, len(text) - 1))].encode(), True
    if cut == "non-utf8":
        return b"\xff\xfe" + text.encode(), True
    return text.encode(), strict


def one_error_line(err: str, prefix: str) -> None:
    assert err.startswith(prefix), err
    assert ": expected " in err and ", got " in err, err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err, err


# ----------------------------------------------------------------------
# hostile in: trace and policy-store files
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("codec-fuzz")


class FileCase:
    """One ``fleet`` command reading one external file."""

    def __init__(self, workdir, flag, what, payload, defaulted):
        self.path = workdir / f"{what.replace(' ', '-')}.json"
        self.out = workdir / f"{what.replace(' ', '-')}-summary.json"
        self.cache = workdir / "fleet-cache"
        self.prefix = f"error: {what} {self.path}: "
        self.payload = payload
        self.defaulted = defaulted
        self.argv = ["--quiet", "fleet", "--scheduler", "fifo", "--policy",
                     "bsp", "--scale", SCALE, "--out", str(self.out),
                     flag, str(self.path)]

    def run(self, raw: bytes, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(self.cache))
        self.path.write_bytes(raw)
        self.out.unlink(missing_ok=True)
        capsys.readouterr()
        code = main(self.argv)
        return code, capsys.readouterr()

    def check(self, raw: bytes, strict: bool, capsys, monkeypatch) -> None:
        code, captured = self.run(raw, capsys, monkeypatch)
        assert code in ((2,) if strict else (0, 2)), (code, raw, captured.err)
        if code == 2:
            one_error_line(captured.err, self.prefix)
            assert not self.out.exists()
        else:
            assert "Traceback" not in captured.err


@pytest.fixture(scope="module")
def trace_case(workdir):
    stream = poisson_stream(FLEET_SCENARIOS["surge"], 0.001, seed=0, n_jobs=2)
    payload = {"jobs": [request.to_dict() for request in stream]}
    return FileCase(
        workdir, "--workload-trace", "trace", payload, REQUEST_DEFAULTS
    )


@pytest.fixture(scope="module")
def store_case(workdir):
    store = populated_store()
    case = FileCase(
        workdir, "--policy-store", "policy store",
        store.to_payload(scale=0.001), STORE_DEFAULTS,
    )
    case.argv += ["--scenario", "surge", "--jobs", "1"]
    return case


def populated_store() -> PolicyStore:
    store = PolicyStore()
    for index, (setup, workers) in enumerate(((1, 8), (3, 16))):
        job_class = JobClass(setup, workers)
        store.install(
            ClassPolicy(
                job_class=job_class, percent=25.0, target_accuracy=0.5,
                bsp_time=40.0, policy_time=25.0, search_cost=130.0,
                n_trials=5, tuned_at=3.5, fractions=(0.25, 0.75),
            )
        )
        for _ in range(2 + 4 * index):
            store.note_recurrence(job_class, 24.0)
    return store


@budget(100)
@given(data=st.data())
def test_mutated_trace_is_rejected_or_runs(
    data, trace_case, capsys, monkeypatch
):
    raw, strict = data.draw(
        mutations(trace_case.payload, trace_case.defaulted)
    )
    trace_case.check(raw, strict, capsys, monkeypatch)


@budget(100)
@given(data=st.data())
def test_mutated_policy_store_is_rejected_or_runs(
    data, store_case, capsys, monkeypatch
):
    raw, strict = data.draw(
        mutations(store_case.payload, store_case.defaulted)
    )
    store_case.check(raw, strict, capsys, monkeypatch)


@budget(10)
@given(version=st.sampled_from([0, 3, 99, -1, "2", 2.5, True, None, [2]]))
def test_wrong_store_version_is_rejected(
    version, store_case, capsys, monkeypatch
):
    payload = dict(store_case.payload, version=version)
    raw = json.dumps(payload).encode()
    store_case.check(raw, True, capsys, monkeypatch)


def test_unmutated_files_run_clean(trace_case, store_case, capsys, monkeypatch):
    for case in (trace_case, store_case):
        code, captured = case.run(
            json.dumps(case.payload).encode(), capsys, monkeypatch
        )
        assert code == 0 and captured.err == "", captured.err


# ----------------------------------------------------------------------
# hostile in: cache blobs
# ----------------------------------------------------------------------


class BlobCase:
    """One command on the cache directory its clean run left behind."""

    def __init__(self, cache: Path, argv: list[str], capsys, monkeypatch):
        self.cache = cache
        self.argv = argv
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        capsys.readouterr()
        assert main(argv) == 0
        self.clean = capsys.readouterr().out
        self.blobs = sorted(cache.glob("*.json"))
        assert self.blobs

    def check(self, blob: Path, raw: bytes, strict: bool, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(self.cache))
        whole = blob.read_bytes()
        blob.write_bytes(raw)
        capsys.readouterr()
        try:
            assert main(self.argv) == 0
            captured = capsys.readouterr()
            assert "Traceback" not in captured.err
            if strict:
                assert captured.out == self.clean, raw
                assert blob.read_bytes() == whole, raw
        finally:
            blob.write_bytes(whole)


@pytest.fixture(scope="module")
def blob_cases(workdir):
    """Lazily seeded blob cases, one cache directory per command."""
    commands = {
        "training": ["--quiet", "report", "fig5b", "--scale", SCALE,
                     "--seeds", "1"],
        "summary": ["--quiet", "fleet", "--scenario", "surge", "--jobs", "2",
                    "--scheduler", "fifo", "--policy", "sync-switch",
                    "--scale", SCALE, "--out", str(workdir / "grid.json")],
        "traced": ["--quiet", "fleet", "--scenario", "surge", "--jobs", "1",
                   "--scheduler", "fifo", "--policy", "bsp", "--scale", SCALE,
                   "--trace", str(workdir / "events.json"),
                   "--out", str(workdir / "traced.json")],
    }
    cases = {}

    def case(name, capsys, monkeypatch) -> BlobCase:
        if name not in cases:
            cases[name] = BlobCase(
                workdir / f"{name}-cache", commands[name], capsys, monkeypatch
            )
        return cases[name]

    return case


@pytest.mark.parametrize(
    "name, examples",
    [("training", 20), ("summary", 12), ("traced", 6)],
    ids=["training-result", "fleet-summary", "traced-fleet-run"],
)
def test_mutated_blob_is_recomputed_or_loads(
    name, examples, blob_cases, capsys, monkeypatch
):
    case = blob_cases(name, capsys, monkeypatch)

    @budget(examples)
    @given(data=st.data())
    def fuzz(data):
        blob = data.draw(st.sampled_from(case.blobs))
        payload = json.loads(blob.read_text(encoding="utf-8"))
        raw, strict = data.draw(
            mutations(payload, set() if name == "training" else SUMMARY_DEFAULTS)
        )
        case.check(blob, raw, strict, capsys, monkeypatch)

    fuzz()


@budget(60)
@given(data=st.data())
def test_mutated_worker_tier_is_rejected_or_loads(data):
    """``WorkerTier`` has no file of its own: ``from_dict`` is the entry."""
    tier = WorkerTier("edge", 4, speed_factor=1.35, bandwidth_factor=1.6)
    raw, strict = data.draw(mutations(tier.to_dict(), TIER_DEFAULTS))
    try:
        parsed = json.loads(raw)
    except ValueError:
        return  # truncated or non-UTF-8 text is the file readers' business
    try:
        WorkerTier.from_dict(parsed)
    except ConfigurationError as exc:
        assert str(exc).startswith("worker tier: ") and "expected" in str(exc)
    else:
        assert not strict, raw


# ----------------------------------------------------------------------
# bytes out: round trips against the hand-written dicts
# ----------------------------------------------------------------------


def literal_request(r: JobRequest) -> dict:
    return {
        "job_id": r.job_id, "arrival": r.arrival,
        "setup_index": r.setup_index, "n_workers": r.n_workers,
        "sync_policy": r.sync_policy, "deadline": r.deadline, "kind": r.kind,
        "percent_override": r.percent_override,
        "protocols": None if r.protocols is None else list(r.protocols),
        "fractions": None if r.fractions is None else list(r.fractions),
        "tier": r.tier, "steps_scale": r.steps_scale,
    }


def literal_tier(t: WorkerTier) -> dict:
    return {
        "name": t.name, "count": t.count, "speed_factor": t.speed_factor,
        "bandwidth_factor": t.bandwidth_factor,
        "extra_latency": t.extra_latency,
    }


def literal_result(r: TrainingResult) -> dict:
    return {
        "plan": r.plan, "seed": r.seed, "n_workers": r.n_workers,
        "total_steps": r.total_steps, "completed_steps": r.completed_steps,
        "total_time": r.total_time, "diverged": r.diverged,
        "diverged_step": r.diverged_step, "converged": r.converged,
        "converged_accuracy": r.converged_accuracy,
        "reported_accuracy": r.reported_accuracy,
        "best_accuracy": r.best_accuracy, "final_loss": r.final_loss,
        "eval_steps": list(r.eval_steps), "eval_times": list(r.eval_times),
        "eval_accuracies": list(r.eval_accuracies),
        "loss_steps": list(r.loss_steps), "loss_values": list(r.loss_values),
        "segment_summary": list(r.segment_summary), "staleness": r.staleness,
        "switch_count": r.switch_count, "total_overhead": r.total_overhead,
        "images_processed": r.images_processed,
    }


def literal_record(r: JobRecord) -> dict:
    payload = {
        "job_id": r.job_id, "setup_index": r.setup_index,
        "sync_policy": r.sync_policy, "percent": r.percent,
        "demand": r.demand, "arrival": r.arrival, "start": r.start,
        "finish": r.finish, "preemptions": r.preemptions,
        "restores": r.restores, "accuracy": r.accuracy,
        "diverged": r.diverged, "completed_steps": r.completed_steps,
        "images": r.images, "kind": r.kind, "deadline": r.deadline,
        "tuned": r.tuned, "degraded": r.degraded, "outcome": r.outcome,
        "allocations": [dict(row) for row in r.allocations],
        "staleness": dict(r.staleness) if r.staleness is not None else None,
    }
    if r.tier is not None:
        payload["tier"] = r.tier
    return payload


def literal_summary(s: FleetSummary) -> dict:
    payload = {
        "scenario": s.scenario, "scheduler": s.scheduler,
        "sync_policy": s.sync_policy, "seed": s.seed, "scale": s.scale,
        "pool_size": s.pool_size, "n_jobs": s.n_jobs,
        "jobs": [literal_record(record) for record in s.jobs],
        "makespan": s.makespan, "mean_jct": s.mean_jct, "p95_jct": s.p95_jct,
        "max_jct": s.max_jct, "mean_queue_delay": s.mean_queue_delay,
        "max_queue_delay": s.max_queue_delay, "utilization": s.utilization,
        "images_per_second": s.images_per_second,
        "preemptions": s.preemptions, "restores": s.restores,
        "diverged_jobs": s.diverged_jobs, "mean_accuracy": s.mean_accuracy,
        "n_search_jobs": s.n_search_jobs, "search_time": s.search_time,
        "n_rejected": s.n_rejected, "n_degraded": s.n_degraded,
        "n_deadline_jobs": s.n_deadline_jobs,
        "slo_attainment": s.slo_attainment,
        "tuning": list(s.tuning) if s.tuning is not None else None,
        "staleness_p50": s.staleness_p50, "staleness_p95": s.staleness_p95,
        "staleness_max": s.staleness_max,
    }
    if s.tiers is not None:
        payload["tiers"] = [dict(row) for row in s.tiers]
    return payload


def literal_store(store: PolicyStore, scale) -> dict:
    classes = []
    for row in store.report():
        job_class = JobClass(row["setup_index"], row["n_workers"])
        policy = store.lookup(job_class)
        total, count = store._realized_service.get(job_class, (0.0, 0))
        classes.append({
            "setup_index": job_class.setup_index,
            "n_workers": job_class.n_workers,
            "protocols": list(policy.protocols),
            "fractions": list(policy.fractions),
            "percent": policy.percent,
            "target_accuracy": policy.target_accuracy,
            "bsp_time": policy.bsp_time, "policy_time": policy.policy_time,
            "search_cost": policy.search_cost, "n_trials": policy.n_trials,
            "tuned_at": policy.tuned_at,
            "recurrences": store.recurrences(job_class),
            "realized_savings": store.realized_savings(job_class),
            "breakeven_recurrence": store.breakeven_recurrence(job_class),
            "realized_service_sum": total,
            "realized_service_count": count,
        })
    return {"version": 2, "scale": scale, "classes": classes}


def same_bytes(encoded: dict, literal: dict) -> None:
    assert json.dumps(encoded) == json.dumps(literal)


@budget(25)
@given(seed=st.integers(0, 2**16), n_jobs=st.integers(1, 40))
def test_trace_stream_requests_round_trip(seed, n_jobs):
    for request in trace_stream(
        TRACE_SCENARIOS["trace"], 0.002, seed, n_jobs=n_jobs
    ):
        same_bytes(request.to_dict(), literal_request(request))
        assert JobRequest.from_dict(request.to_dict()) == request


@budget(25)
@given(pool=st.integers(1, 200))
def test_worker_tiers_round_trip(pool):
    for tier in default_worker_tiers(pool):
        same_bytes(tier.to_dict(), literal_tier(tier))
        assert WorkerTier.from_dict(tier.to_dict()) == tier


@pytest.fixture(scope="module")
def fleet_summaries(workdir):
    """A tiered trace-scenario run (rejections, deadlines, tiers rows)
    and a classic preempting one (allocations, no tier key)."""
    return [
        simulate_fleet(FleetConfig(
            scenario="trace", scheduler="slo", scale=0.001, n_jobs=6,
        )),
        simulate_fleet(FleetConfig(
            scenario="rush", scheduler="best-fit", scale=0.001, n_jobs=3,
        )),
    ]


def test_fleet_summaries_and_records_round_trip(fleet_summaries):
    tiered, classic = fleet_summaries
    assert tiered.tiers is not None and classic.tiers is None
    assert "tiers" not in classic.to_dict()
    assert "tier" not in classic.to_dict()["jobs"][0]
    for summary in fleet_summaries:
        same_bytes(summary.to_dict(), literal_summary(summary))
        assert FleetSummary.from_dict(summary.to_dict()) == summary
        for record in summary.jobs:
            assert JobRecord.from_dict(record.to_dict()) == record


def test_training_result_and_traced_run_round_trip(workdir):
    run = run_traced_fleet(
        scenario="surge", sync_policy="sync-switch", scale=0.001, n_jobs=1,
        cache_dir=workdir / "round-trip-cache",
    )
    same_bytes(
        run.to_dict(),
        {"summary": literal_summary(run.summary), "events": list(run.events),
         "metrics": run.metrics},
    )
    assert TracedFleetRun.from_dict(run.to_dict()) == run
    blobs = sorted((workdir / "round-trip-cache").glob("*.json"))
    assert json.loads(blobs[0].read_text()) == run.to_dict()

    from repro.experiments.runner import ExperimentRunner
    from repro.experiments.setups import SETUPS

    runner = ExperimentRunner(scale=0.001, seeds=1, cache_dir="off")
    diverging = {"kind": "static", "protocol": "asp"}  # on 16 workers
    for setup, spec in ((1, {"kind": "switch", "percent": 25.0}), (3, diverging)):
        result = runner.run(SETUPS[setup], spec, 0)
        assert result.diverged == (spec is diverging)
        same_bytes(result.to_dict(), literal_result(result))
        assert TrainingResult.from_dict(result.to_dict()) == result


@budget(25)
@given(
    percent=st.floats(0.0, 100.0),
    times=st.tuples(*[st.floats(0.0, 1e6)] * 4),
    services=st.lists(st.floats(0.0, 1e6), max_size=4),
    scale=st.sampled_from([None, 0.001, 0.008]),
    fraction=st.sampled_from([None, 0.0, 0.25, 1.0]),
)
def test_policy_store_round_trip(percent, times, services, scale, fraction):
    bsp_time, policy_time, search_cost, tuned_at = times
    share = percent / 100 if fraction is None else fraction
    store = PolicyStore()
    job_class = JobClass(1, 8)
    store.install(ClassPolicy(
        job_class=job_class, percent=percent, target_accuracy=0.5,
        bsp_time=bsp_time, policy_time=policy_time, search_cost=search_cost,
        n_trials=3, tuned_at=tuned_at, fractions=(share, 1.0 - share),
    ))
    for service in services:
        store.note_recurrence(job_class, service)
    payload = store.to_payload(scale=scale)
    again = PolicyStore.from_payload(json.loads(json.dumps(payload)), scale)
    assert again.to_payload(scale=scale) == payload
    same_bytes(payload, literal_store(store, scale))
    if fraction is None:
        # Decode-only: a null row (no policy writes one any more) loads
        # as the N=2 schedule at its percent.
        payload["classes"][0]["fractions"] = None
        nulled = PolicyStore.from_payload(json.loads(json.dumps(payload)), scale)
        assert nulled.lookup(job_class).fractions == (
            percent / 100, 1 - percent / 100
        )
        assert nulled.to_payload(scale=scale) == again.to_payload(scale=scale)
