"""Fleet-level tests for elastic re-simulation of preempted ASP tails.

Pins:

* a job with zero allocation changes is **bit-identical** to a
  one-shot run of the same inputs (``tests/core/reference_controller.py``,
  a plain per-segment transcription that shares no code with the
  runtime and runs on every BLAS build), and the preemption-free
  streams match the sha256 golden hashes committed in
  ``tests/data/fleet_golden_hashes.json``;
* a preemption-heavy stream (rush under best-fit) really preempts and
  restores, its allocation history survives the summary round-trip,
  and its summary — clock run, fork, resize, re-project, cell —
  matches a committed hash, as a two-phase switch and as a
  three-segment schedule;
* every job of a preempting stream equals a numeric run driven live
  through its placements in event order (``TestResizedJobOracle``, no
  hash: it runs on every BLAS build).

The golden hashes are exact float bit patterns; like the distsim
golden suite, set ``REPRO_GOLDEN_SKIP=1`` on machines whose BLAS
rounds differently.  Regenerate after an intentional numeric change::

    PYTHONPATH=src python tests/fleet/test_resim.py regen
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

import pytest

from repro.core.runtime import ElasticTrainingRun
from repro.distsim.cluster import ClusterSpec
from repro.distsim.engines import synchronous_protocols
from repro.distsim.stragglers import StragglerEvent, StragglerSchedule
from repro.fleet import (
    FleetConfig,
    FleetSimulator,
    FleetSummary,
    JobRequest,
    simulate_fleet,
)
from repro.fleet.pool import job_stragglers
from repro.fleet.running import RunningJob, training_inputs

# The one-shot oracle lives beside the runtime tests (tests/ has no
# packages; a test directory is importable once it is on the path).
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "core"))
from reference_controller import reference_run  # noqa: E402

GOLDEN_PATH = (
    Path(__file__).resolve().parents[1] / "data" / "fleet_golden_hashes.json"
)
SCALE = 0.008

#: Preemption-free golden cells (FIFO never preempts): the committed
#: hash, at a single-job and a multi-job stream.
GOLDEN_CELLS = {"jobs=1": 1, "jobs=4": 4}

#: Preempting golden cells (rush under best-fit): the ``preempted``
#: fixture's stream, and the same stream on a three-segment schedule
#: whose paused segments are SSP as well as BSP.
PREEMPTING_CELLS = {
    "preempted": {},
    "preempted-bsp-ssp-asp": {
        "protocols": ("bsp", "ssp", "asp"),
        "fractions": (0.1, 0.3, 0.6),
    },
}


def config(**overrides) -> FleetConfig:
    base = {
        "scenario": "rush",
        "scheduler": "fifo",
        "sync_policy": "sync-switch",
        "seed": 0,
        "scale": SCALE,
        "n_jobs": 4,
    }
    base.update(overrides)
    return FleetConfig(**base)


def summary_hash(summary: FleetSummary) -> str:
    payload = json.dumps(summary.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _skip_unless_golden_machine():
    if os.environ.get("REPRO_GOLDEN_SKIP", "") not in ("", "0"):
        pytest.skip("REPRO_GOLDEN_SKIP set (BLAS float bits differ here)")


@pytest.fixture(scope="module")
def golden() -> dict:
    assert GOLDEN_PATH.exists(), (
        f"missing {GOLDEN_PATH}; regenerate with "
        "`PYTHONPATH=src python tests/fleet/test_resim.py regen`"
    )
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def preempting(name: str) -> FleetSummary:
    return simulate_fleet(
        config(scheduler="best-fit", n_jobs=None, **PREEMPTING_CELLS[name])
    )


def admitted(monkeypatch) -> list:
    """``(job, inputs)`` of every admission any simulator in the test
    makes: the :class:`RunningJob` and the fleet inputs it was built
    from, plus its admission ``placement``."""
    seen = []
    init = RunningJob.__init__

    def recording(self, request, workers, start, tracer, **fleet):
        init(self, request, workers, start, tracer, **fleet)
        seen.append((self, {"placement": (start, workers), **fleet}))

    monkeypatch.setattr(RunningJob, "__init__", recording)
    return seen


@pytest.fixture(scope="module")
def preempted():
    """Summary of a preemption-heavy stream."""
    return preempting("preempted")


class TestGoldenParity:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CELLS))
    def test_unresized_jobs_match_one_shot_controller(self, name, monkeypatch):
        """Independent oracle for the admission-time cell.

        On a preemption-free stream every admitted job is re-trained
        by the one-shot reference on the simulator's own inputs; the
        job record must equal it bit for bit.
        """
        simulator = FleetSimulator(config(n_jobs=GOLDEN_CELLS[name]))
        admissions = admitted(monkeypatch)
        summary = simulator.run()
        assert summary.preemptions == 0 and summary.restores == 0
        records = {job.job_id: job for job in summary.jobs}
        assert len(admissions) == len(records) == GOLDEN_CELLS[name]
        assert all(job.clock is None for job, _ in admissions)
        synchronous = synchronous_protocols()
        for running_job, fleet in admissions:
            request, (now, workers) = running_job.request, fleet["placement"]
            job, policies = training_inputs(
                request,
                fleet["percent"],
                fleet["schedule"],
                fleet["seed"],
                fleet["scale"],
            )
            reference = reference_run(
                job,
                ClusterSpec(n_workers=len(workers)),
                policies,
                stragglers=job_stragglers(fleet["contention"], workers, now),
                overhead_time_scale=fleet["scale"],
                overhead_bandwidth=fleet["pool"].bandwidth_for(workers),
            )
            record = records[request.job_id]
            assert record.accuracy == reference.reported_accuracy
            assert record.completed_steps == reference.completed_steps
            assert record.images == reference.images_processed
            # The finish event is start + BSP span + async tail, the
            # tail being the trailing non-barrier segments.
            tail = 0.0
            for segment in reversed(reference.segment_summary):
                if segment["protocol"] in synchronous:
                    break
                tail += segment["duration"]
            expected = now + (reference.total_time - tail) + tail
            assert record.start == now
            assert record.finish - record.start == expected - now
            assert record.finish - record.start == pytest.approx(
                reference.total_time
            )

    # ids keep the "exact-" prefix the cells have always reported under.
    @pytest.mark.parametrize(
        "name", sorted(GOLDEN_CELLS), ids=lambda name: f"exact-{name}"
    )
    def test_committed_golden_hash(self, name, golden):
        _skip_unless_golden_machine()
        summary = simulate_fleet(config(n_jobs=GOLDEN_CELLS[name]))
        assert summary_hash(summary) == golden["hashes"][name], (
            f"{name}: fleet summary changed vs the committed golden "
            "hash — the preemption-free fleet timeline is no longer "
            "bit-stable"
        )

    @pytest.mark.parametrize("name", sorted(PREEMPTING_CELLS))
    def test_committed_preempting_hash(self, name, golden, preempted):
        _skip_unless_golden_machine()
        summary = preempted if name == "preempted" else preempting(name)
        assert summary.preemptions > 0
        assert summary_hash(summary) == golden["preempting"]["hashes"][name], (
            f"{name}: fleet summary changed vs the committed golden "
            "hash — the clock run, a projection or a cell moved a bit"
        )

    def test_exact_mode_is_reproducible(self):
        first = simulate_fleet(config())
        second = simulate_fleet(config())
        assert first.to_dict() == second.to_dict()


class TestPreemptedDelta:
    def test_stream_actually_preempts(self, preempted):
        assert preempted.preemptions > 0
        assert preempted.restores > 0

    def test_allocation_history_records_every_resize(self, preempted):
        for job in preempted.jobs:
            causes = [row["cause"] for row in job.allocations]
            assert causes[0] == "admit"
            assert causes.count("preempt") >= job.preemptions
            assert causes.count("restore") == job.restores
            times = [row["time"] for row in job.allocations]
            assert times == sorted(times)
            segments = job.allocation_segments()
            assert segments[0]["start"] == job.start
            assert segments[-1]["end"] == job.finish
            for span, nxt in zip(segments, segments[1:]):
                assert span["end"] == nxt["start"]

    def test_summary_roundtrip_keeps_allocations(self, preempted):
        again = FleetSummary.from_dict(preempted.to_dict())
        assert again.to_dict() == preempted.to_dict()
        record = next(job for job in again.jobs if job.preemptions > 0)
        assert record.allocations


class TestContentionReslice:
    def test_empty_reslice_replaces_the_stale_slice(self):
        """A resize whose correct new slice is empty must not keep the
        admission-time slice of the old physical mapping alive — in the
        clock run, and in the cell that replays the placement."""
        trace = (
            JobRequest(job_id=0, arrival=0.0, setup_index=1, n_workers=8,
                       sync_policy="asp"),
        )
        simulator = FleetSimulator(
            config(scheduler="best-fit", trace=trace, pool_size=16, n_jobs=None)
        )
        # The fleet's contention, replaced by one early burst on the
        # job's last worker: present in the admission slice, long gone
        # by the resize instant.
        simulator.contention = StragglerSchedule(
            [StragglerEvent(worker=7, start=0.0, duration=0.5,
                            slow_factor=7.0)]
        )
        simulator._advance(0.0)
        simulator._queue.append(simulator.stream[0])
        simulator._schedule(0.0)
        job = simulator._running[0]

        def stale(run) -> bool:
            return any(
                event.slow_factor == 7.0
                for event in run.session.stragglers.events
            )

        assert stale(job.clock)
        job.enter_asp()
        simulator._resize(job, 6, 2.0, "preempt", {})
        assert len(job.placements) == 2
        assert not stale(job.clock), (
            "stale admission slice survived an empty re-slice"
        )
        cell, reached = job._replay(simulator.contention)
        assert reached == 2 and cell.n_active == 6
        assert not stale(cell), "the cell kept the stale admission slice"


class TestResizedJobOracle:
    """Every job of a preempting stream equals a numeric run driven
    *live* through its placements in event order — trained up to each
    allocation change as it happens, resized there on its own re-slice
    of the contention, finished at the finish event — which shares no
    code with the clock runs and cells the fleet keeps, and runs on
    every BLAS build (no golden hash)."""

    @pytest.mark.parametrize("seed", range(4))
    def test_cells_equal_live_runs(self, seed, monkeypatch):
        live = {}
        admissions = admitted(monkeypatch)
        init, resize, finish = (
            RunningJob.__init__, RunningJob.resize, RunningJob.finish
        )

        def admitting(self, request, workers, start, tracer, **fleet):
            init(self, request, workers, start, tracer, **fleet)
            if self.clock is None:
                return
            job, policies = training_inputs(
                request, fleet["percent"], fleet["schedule"],
                fleet["seed"], fleet["scale"],
            )
            run = ElasticTrainingRun(
                job=job,
                cluster_spec=ClusterSpec(n_workers=len(workers)),
                policies=policies,
                stragglers=job_stragglers(fleet["contention"], workers, start),
                overhead_time_scale=fleet["scale"],
                overhead_bandwidth=fleet["pool"].bandwidth_for(workers),
            )
            assert run.run_to_tail() == "paused"
            live[request.job_id] = run

        def resizing(self, new_count, now, cause, pool, contention, *rest):
            run = live[self.request.job_id]
            status = run.advance_to(now - self.start)
            applied = resize(self, new_count, now, cause, pool, contention, *rest)
            assert applied == (status == "paused")
            if applied:
                sliced = job_stragglers(
                    contention, self.workers, self.start, active_after=now
                )
                run.resize(len(self.workers), sliced)
            return applied

        def finishing(self, contention):
            if self.clock is not None:
                live[self.request.job_id].run_to_completion()
            return finish(self, contention)

        monkeypatch.setattr(RunningJob, "__init__", admitting)
        monkeypatch.setattr(RunningJob, "resize", resizing)
        monkeypatch.setattr(RunningJob, "finish", finishing)
        summary = simulate_fleet(
            config(scheduler="best-fit", seed=seed, scale=0.002, n_jobs=3)
        )
        assert summary.preemptions > 0 and len(live) == summary.n_jobs
        assert len(admissions) == summary.n_jobs
        for record in summary.jobs:
            reference = live[record.job_id].result()
            assert record.accuracy == reference.reported_accuracy
            assert record.completed_steps == reference.completed_steps
            assert record.images == reference.images_processed
            assert record.staleness == dict(reference.staleness)


def _regenerate() -> None:
    hashes = {
        name: summary_hash(simulate_fleet(config(n_jobs=n)))
        for name, n in sorted(GOLDEN_CELLS.items())
    }
    import numpy as np

    # Read-modify-write: other suites (tests/fleet/test_trace_scale.py)
    # keep their own top-level sections in the same goldens file.
    payload = (
        json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        if GOLDEN_PATH.exists()
        else {}
    )
    preempting_hashes = {
        name: summary_hash(preempting(name)) for name in sorted(PREEMPTING_CELLS)
    }
    payload.update(
        {
            "scenario": "rush",
            "scheduler": "fifo",
            "sync_policy": "sync-switch",
            "seed": 0,
            "scale": SCALE,
            "numpy": np.__version__,
            "hashes": hashes,
            "preempting": {
                "scheduler": "best-fit",
                "hashes": preempting_hashes,
            },
        }
    )
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN_PATH}")
    for name, value in {**hashes, **preempting_hashes}.items():
        print(f"  {name}: {value}")


if __name__ == "__main__":
    if len(sys.argv) == 2 and sys.argv[1] == "regen":
        _regenerate()
    else:
        print(__doc__)
        sys.exit(2)
