"""Divergence restarts: the one place numerics move a fleet timeline.

A preemptible job's completion is projected without numerics, so a
projection cannot see a divergence.  When the job's cell diverges where
its projection did not, the attempt is void: ``FleetSimulator.run``
simulates the stream again knowing that trajectory diverges, at most
once per such discovery, and a discarded attempt leaves nothing behind.

Pins (``tests/data/fleet_golden_hashes.json``, section ``restarting``,
generated by the numeric-projection code this design replaced):

* ``heavy`` under best-fit, all-ASP, seed 0 — two divergences
  discovered late, three attempts — as a summary, and traced at update
  detail with a 1 s metrics interval (events + metrics + summary).
  The traced pin was taken again when the cells moved to the finish
  event: the summary and metrics were equal, and the events equal as a
  sorted multiset — only their order moved.  It was taken once more
  when the metrics histograms moved to the nearest-rank percentile:
  summary and events were equal, and in the metrics only
  ``histograms.*.p50`` values moved;
* ``heavy`` under best-fit, ``bsp,asp`` at ``0.02,0.98``, seeds 1 and 3
  — streams where an admission projection would have diverged only
  after the job's first resize, which no numerics-free projection can
  see (the residual class of docs/architecture.md, "Timeline model").

Exact float bit patterns, like the other golden suites: set
``REPRO_GOLDEN_SKIP=1`` on machines whose BLAS rounds differently.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.runtime import ElasticTrainingRun
from repro.errors import FleetError
from repro.fleet import FleetConfig, FleetSimulator, JobRequest, running
from repro.fleet.running import UnforeseenDivergence

GOLDEN = json.loads(
    (
        Path(__file__).resolve().parents[1] / "data" / "fleet_golden_hashes.json"
    ).read_text(encoding="utf-8")
)["restarting"]

#: name -> FleetConfig overrides of the pinned cells.
CELLS = {
    "heavy-asp-seed0": {"sync_policy": "asp", "seed": 0},
    "heavy-bsp-asp-seed1": {
        "seed": 1,
        "protocols": ("bsp", "asp"),
        "fractions": (0.02, 0.98),
    },
    "heavy-bsp-asp-seed3": {
        "seed": 3,
        "protocols": ("bsp", "asp"),
        "fractions": (0.02, 0.98),
    },
}


def config(name: str, **extra) -> FleetConfig:
    return FleetConfig(
        scenario="heavy",
        scheduler=GOLDEN["scheduler"],
        scale=GOLDEN["scale"],
        n_jobs=GOLDEN["n_jobs"],
        **{"sync_policy": "sync-switch", **CELLS[name], **extra},
    )


def digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


def golden_machine() -> None:
    if os.environ.get("REPRO_GOLDEN_SKIP", "") not in ("", "0"):
        pytest.skip("REPRO_GOLDEN_SKIP set (BLAS float bits differ here)")


@pytest.fixture
def attempts(monkeypatch) -> list:
    """One entry per attempt any simulator in the test makes."""
    seen = []
    attempt = FleetSimulator._attempt

    def counting(self):
        seen.append(self)
        return attempt(self)

    monkeypatch.setattr(FleetSimulator, "_attempt", counting)
    return seen


class TestPinnedCells:
    def test_late_divergences_restart_to_the_pinned_summary(self, attempts):
        simulator = FleetSimulator(config("heavy-asp-seed0"))
        summary = simulator.run()
        assert summary.diverged_jobs == 2
        assert len(attempts) == 3 == 1 + len(simulator._diverging)
        golden_machine()
        assert digest(summary.to_dict()) == GOLDEN["hashes"]["heavy-asp-seed0"]

    def test_traced_restart_cell_matches_its_pin(self, attempts):
        """Events and metrics of the voided attempts are all gone."""
        simulator = FleetSimulator(
            config("heavy-asp-seed0", trace_detail="update", metrics_interval=1.0)
        )
        summary = simulator.run()
        assert len(attempts) == 3
        golden_machine()
        traced = {
            "summary": summary.to_dict(),
            "events": simulator.tracer.events,
            "metrics": simulator.metrics_payload,
        }
        assert digest(traced) == GOLDEN["hashes"]["heavy-asp-seed0-traced"]

    @pytest.mark.parametrize(
        "name", ["heavy-bsp-asp-seed1", "heavy-bsp-asp-seed3"]
    )
    def test_residual_class_cells_match_their_pins(self, name, monkeypatch):
        unseen = []
        init = running.RunningJob.__init__

        def admitting(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if self.clock is not None and not self.projection.diverged:
                # The job's cell at admission: the admission projection
                # trained with numerics.
                numeric, _ = self._replay(kwargs["contention"])
                if numeric.completion().diverged:
                    unseen.append(self.request.job_id)

        monkeypatch.setattr(running.RunningJob, "__init__", admitting)
        summary = FleetSimulator(config(name)).run()
        assert summary.preemptions > 0 and summary.diverged_jobs == 1
        # A job whose admission projection, trained with numerics,
        # would have diverged — and which did not, because a resize
        # came first: the input class no numerics-free projection sees.
        records = {job.job_id: job for job in summary.jobs}
        assert any(
            not records[job_id].diverged
            and len(records[job_id].allocations) > 1
            for job_id in unseen
        )
        golden_machine()
        assert digest(summary.to_dict()) == GOLDEN["hashes"][name]


class TestAttempts:
    CONFIG = FleetConfig(
        scenario="recurring",
        scheduler="fifo",
        tune=True,
        seed=0,
        scale=0.002,
        n_jobs=3,
        trace_detail="job",
        metrics_interval=5.0,
    )

    def test_a_discarded_attempt_leaves_nothing_behind(self, monkeypatch):
        """A whole attempt's events, metrics and store writes vanish."""
        clean = FleetSimulator(self.CONFIG)
        expected = clean.run()
        assert clean.store.report()  # the stream searched and stored
        attempt = FleetSimulator._attempt
        voided = []

        def voiding(self):
            if not voided:
                voided.append(attempt(self))
                raise UnforeseenDivergence(("nobody",), 1)
            return attempt(self)

        monkeypatch.setattr(FleetSimulator, "_attempt", voiding)
        simulator = FleetSimulator(self.CONFIG)
        assert simulator.run().to_dict() == expected.to_dict()
        assert voided[0].to_dict() == expected.to_dict()
        assert simulator.tracer.events == clean.tracer.events
        assert simulator.metrics_payload == clean.metrics_payload
        assert simulator.store.report() == clean.store.report()

    def test_each_voided_attempt_logs_one_debug_line(self, attempts, caplog):
        """The heavy all-ASP stream voids two attempts: one DEBUG line
        each on the simulator's module logger, naming the attempt, the
        job and the step its cell diverged at."""
        name = "repro.fleet.fleet_sim"
        with caplog.at_level(logging.DEBUG, logger=name):
            simulator = FleetSimulator(config("heavy-asp-seed0"))
            simulator.run()
        lines = [
            (record.levelno, record.getMessage())
            for record in caplog.records
            if record.name == name
        ]
        found = [(key[0], step) for key, step in simulator._diverging.items()]
        assert lines == [
            (logging.DEBUG, f"attempt {n} void: job {job} diverged at step {step}")
            for n, (job, step) in enumerate(found, 1)
        ]
        assert len(attempts) == 1 + len(lines) == 3

    def test_voided_attempts_stay_off_the_default_cli_output(self):
        """``--log-level info`` (the default) prints no DEBUG line."""
        from repro import cli

        root = logging.getLogger("repro")
        handlers, level, propagate = list(root.handlers), root.level, root.propagate
        try:
            cli._configure_logging("info", quiet=False)
            logger = logging.getLogger("repro.fleet.fleet_sim")
            assert not logger.isEnabledFor(logging.DEBUG)
        finally:
            root.handlers[:] = handlers
            root.setLevel(level)
            root.propagate = propagate

    def test_a_bsp_phase_divergence_of_a_preemptible_job_costs_one_attempt(
        self, attempts, monkeypatch
    ):
        """The clock run pauses at the tail as if the job did not
        diverge; the cell finds the divergence at the finish event, and
        the second attempt ends the job where a non-preemptive fleet,
        which runs the cell at admission, does in one."""
        inputs = running.training_inputs

        def fragile(*args):
            job, policies = inputs(*args)
            return replace(job, divergence_threshold=1.0), policies

        monkeypatch.setattr(running, "training_inputs", fragile)
        trace = (JobRequest(job_id=0, arrival=0.0),)
        jobs = {
            scheduler: FleetSimulator(
                FleetConfig(scheduler=scheduler, trace=trace, scale=0.002)
            ).run().jobs
            for scheduler in ("fifo", "best-fit")
        }
        assert len(attempts) == 1 + 2
        [record] = jobs["best-fit"]
        assert record.diverged and record.completed_steps > 0
        assert jobs["best-fit"] == jobs["fifo"]

    def test_a_live_run_ending_other_than_projected_is_an_error(
        self, monkeypatch
    ):
        """Only a divergence may part a job's cell from its projection."""
        project = ElasticTrainingRun.project

        def late(self, diverges_at=None):
            projection = project(self, diverges_at)
            return projection._replace(total_time=projection.total_time + 1.0)

        monkeypatch.setattr(ElasticTrainingRun, "project", late)
        with pytest.raises(FleetError, match="its projection said"):
            FleetSimulator(
                FleetConfig(
                    scenario="rush",
                    scheduler="best-fit",
                    seed=0,
                    scale=0.002,
                    n_jobs=3,
                )
            ).run()
