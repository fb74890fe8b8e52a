"""Tests for the fleet scenario driver and its executor integration."""

import json
from dataclasses import fields, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.experiments.fleet as fleet_module
import repro.mlcore.datasets as datasets_module
from repro.distsim.cluster import WorkerTier
from repro.experiments import ARTIFACTS, ExperimentRunner, prefetch_union
from repro.experiments.executor import RunRequest, digest_key
from repro.experiments.fleet import (
    MODES,
    FleetRunRequest,
    FleetShardRequest,
    fleet_grid,
    fleet_report,
    run_mode,
)
from repro.errors import FleetError
from repro.experiments.setups import SETUPS
from repro.fleet import (
    JOB_KINDS,
    SYNC_POLICIES,
    FleetSimulator,
    FleetSummary,
    JobRequest,
    WorkerPool,
)

SCALE = 0.008


@pytest.fixture(scope="module")
def tiny_grid(tmp_path_factory):
    cache = tmp_path_factory.mktemp("fleet-cache")
    grid = fleet_grid(
        scenario="rush",
        schedulers=("fifo",),
        policies=("sync-switch", "bsp"),
        seed=0,
        scale=SCALE,
        n_jobs=2,
        cache_dir=cache,
    )
    return grid, cache


class TestFleetRunRequest:
    def test_key_stable_and_distinct(self):
        base = FleetRunRequest("rush", "fifo", "sync-switch", seed=0)
        assert base.key(SCALE) == FleetRunRequest(
            "rush", "fifo", "sync-switch", seed=0
        ).key(SCALE)
        variants = {
            base.key(SCALE),
            FleetRunRequest("rush", "sjf", "sync-switch", 0).key(SCALE),
            FleetRunRequest("rush", "fifo", "bsp", 0).key(SCALE),
            FleetRunRequest("rush", "fifo", "sync-switch", 1).key(SCALE),
            base.key(0.01),
        }
        assert len(variants) == 5

    def test_key_differs_from_training_cells(self):
        # Fleet cells share the cache directory with training cells;
        # the "fleet" kind marker keeps the namespaces apart.
        from repro.experiments.executor import cache_key
        from repro.experiments.setups import SETUPS

        fleet_key = FleetRunRequest("rush", "fifo", "bsp", 0).key(SCALE)
        training = cache_key(
            SETUPS[1], {"kind": "switch", "percent": 100.0}, 0, SCALE
        )
        assert fleet_key != training


def reference_run_key(self, scale: float) -> str:
    """``FleetRunRequest.key`` as it was written by hand before the key
    came from the codec encoding (kept verbatim as the reference)."""
    payload = {
        "kind": "fleet",
        "scenario": self.scenario,
        "scheduler": self.scheduler,
        "sync_policy": self.sync_policy,
        "seed": self.seed,
        "n_jobs": self.n_jobs,
        "scale": scale,
        "trace": (
            [request.to_dict() for request in self.trace]
            if self.trace is not None
            else None
        ),
        "tune": self.tune,
        "tune_runs": self.tune_runs,
        # Frozen: the ledger's pinned digests hash cache file names.
        "resim": "exact",
        "protocols": (
            None if self.protocols is None else list(self.protocols)
        ),
        "fractions": (
            None if self.fractions is None else list(self.fractions)
        ),
        "trace_detail": self.trace_detail,
        "metrics_interval": self.metrics_interval,
    }
    if self.tiers is not None:
        payload["tiers"] = [tier.to_dict() for tier in self.tiers]
    if self.trace_detail is None:
        return digest_key(payload)
    # A traced cell stores a TracedFleetRun, not a bare summary, so
    # it gets its own namespace (frozen: TestCacheKeySchema pins it).
    return digest_key({"kind": "fleet-trace", "cell": digest_key(payload)})


def reference_shard_key(self, scale: float) -> str:
    """``FleetShardRequest.key`` as it was written by hand (verbatim)."""
    return digest_key(
        {
            "kind": "fleet-shard",
            "scenario": self.scenario,
            "shard_index": self.shard_index,
            "n_shards": self.n_shards,
            "trace": [request.to_dict() for request in self.trace],
            "pool_size": self.pool_size,
            "scheduler": self.scheduler,
            "sync_policy": self.sync_policy,
            "seed": self.seed,
            "scale": scale,
            # Frozen: the ledger's pinned digests hash cache file names.
            "resim": "exact",
            "tiers": (
                None
                if self.tiers is None
                else [tier.to_dict() for tier in self.tiers]
            ),
        }
    )


SCHEDULES = (
    (("bsp", "asp"), (0.25, 0.75)),
    (("bsp", "ssp", "asp"), (0.2, 0.3, 0.5)),
)
scenarios = st.sampled_from(["rush", "trace", "deadline/shard-1"])
sizes = st.floats(0.01, 1e4, allow_nan=False)
optional_schedules = st.none() | st.sampled_from(SCHEDULES)


@st.composite
def job_requests(draw, job_id):
    """A valid trace job: N-segment, deadline, tier and size variants."""
    schedule = draw(optional_schedules)
    protocols, fractions = schedule or (None, None)
    return JobRequest(
        job_id=job_id,
        arrival=draw(st.floats(0.0, 1e4)),
        setup_index=draw(st.sampled_from(sorted(SETUPS))),
        n_workers=draw(st.integers(1, 32)),
        sync_policy=draw(st.sampled_from(SYNC_POLICIES)),
        deadline=draw(st.none() | sizes),
        kind=draw(st.sampled_from(JOB_KINDS)),
        percent_override=draw(st.none() | st.floats(0.0, 100.0)),
        protocols=protocols,
        fractions=fractions,
        tier=draw(st.none() | st.sampled_from(["prod", "batch"])),
        steps_scale=draw(sizes),
    )


@st.composite
def traces(draw):
    count = draw(st.integers(0, 3))
    return tuple(draw(job_requests(job_id)) for job_id in range(count))


tier_tuples = st.lists(
    st.builds(
        WorkerTier,
        name=st.sampled_from(["cloud", "edge"]),
        count=st.integers(1, 64),
        speed_factor=st.floats(1.0, 4.0),
        bandwidth_factor=st.floats(1.0, 4.0),
        extra_latency=st.floats(0.0, 1.0),
    ),
    max_size=2,
).map(tuple)


@st.composite
def run_requests(draw):
    protocols, fractions = draw(optional_schedules) or (None, None)
    return FleetRunRequest(
        scenario=draw(scenarios),
        scheduler=draw(st.sampled_from(["fifo", "best-fit", "slo"])),
        sync_policy=draw(st.sampled_from(SYNC_POLICIES)),
        seed=draw(st.integers(0, 5)),
        n_jobs=draw(st.none() | st.integers(1, 600)),
        trace=draw(st.none() | traces()),
        tune=draw(st.booleans()),
        tune_runs=draw(st.integers(1, 3)),
        protocols=protocols,
        fractions=fractions,
        trace_detail=draw(st.none() | st.sampled_from(["job", "update"])),
        metrics_interval=draw(
            st.none() | st.integers(1, 100) | st.floats(0.5, 100.0)
        ),
        tiers=draw(st.none() | tier_tuples),
    )


@st.composite
def shard_requests(draw):
    return FleetShardRequest(
        scenario=draw(scenarios),
        shard_index=draw(st.integers(0, 7)),
        n_shards=draw(st.integers(1, 8)),
        trace=draw(traces()),
        pool_size=draw(st.integers(1, 256)),
        scheduler=draw(st.sampled_from(["fifo", "best-fit", "slo"])),
        sync_policy=draw(st.sampled_from(SYNC_POLICIES)),
        seed=draw(st.integers(0, 5)),
        tiers=draw(st.none() | tier_tuples),
    )


#: Per request class: a base cell and, for every keyed field, another
#: value of it.  A field added without a variant fails the coverage test.
KEY_VARIANTS = {
    RunRequest: (
        RunRequest(SETUPS[1], {"name": "bsp", "percent": 100.0}, 0),
        {
            "setup": SETUPS[2],
            "spec": {"name": "bsp", "percent": 50.0},
            "seed": 1,
        },
    ),
    FleetRunRequest: (
        FleetRunRequest("rush", "best-fit", "sync-switch", 0, n_jobs=3),
        {
            "scenario": "mixed",
            "scheduler": "fifo",
            "sync_policy": "bsp",
            "seed": 1,
            "n_jobs": 4,
            "trace": (JobRequest(job_id=0, arrival=0.0),),
            "tune": True,
            "tune_runs": 2,
            "protocols": ("bsp", "asp"),
            "fractions": (0.5, 0.5),
            "trace_detail": "job",
            "metrics_interval": 5.0,
            "tiers": (),
        },
    ),
    FleetShardRequest: (
        FleetShardRequest(
            "trace", 0, 2, (JobRequest(job_id=0, arrival=0.0),), 32,
            "slo", "sync-switch",
        ),
        {
            "scenario": "rush",
            "shard_index": 1,
            "n_shards": 3,
            "trace": (JobRequest(job_id=0, arrival=1.0),),
            "pool_size": 16,
            "scheduler": "fifo",
            "sync_policy": "asp",
            "seed": 1,
            "tiers": (WorkerTier("cloud", 32),),
        },
    ),
}


class TestCacheKeySchema:
    """Literal digests of the fleet key payloads: plain, traced, shard.

    The perf ledger's pinned digests hash cache *file names*, so a
    changed key payload (a field added, dropped or renamed) must fail
    here, in seconds, not as digest mismatches across three workloads.
    The fleet keys are the codec encoding of their request: they must
    equal the hand-written payloads they replaced, and every request
    field must move its key.
    """

    CELL = FleetRunRequest("rush", "best-fit", "sync-switch", 0, n_jobs=3)

    def test_run_request_key_is_pinned(self):
        assert self.CELL.key(0.002) == "961328679c3fce9ba8d02f17"

    def test_traced_key_is_pinned(self):
        # A cell is traced exactly when trace_detail is set; its key
        # wraps the plain payload's digest in the "fleet-trace" kind.
        traced = replace(self.CELL, trace_detail="job")
        assert traced.key(0.002) == "15c3e06a0cc7c1328e9da11d"

    def test_shard_request_key_is_pinned(self):
        shard = FleetShardRequest(
            scenario="trace",
            shard_index=0,
            n_shards=2,
            trace=(
                JobRequest(job_id=0, arrival=0.0, setup_index=1,
                           n_workers=8, sync_policy="asp"),
            ),
            pool_size=32,
            scheduler="slo",
            sync_policy="sync-switch",
        )
        assert shard.key(0.001) == "4a0952191592df03fb2b72d8"

    @given(request=run_requests(), scale=st.sampled_from([0.001, 0.008, 1.0]))
    def test_run_key_equals_the_hand_written_payload(self, request, scale):
        assert request.key(scale) == reference_run_key(request, scale)

    @given(request=shard_requests(), scale=st.sampled_from([0.001, 0.008, 1.0]))
    def test_shard_key_equals_the_hand_written_payload(self, request, scale):
        assert request.key(scale) == reference_shard_key(request, scale)

    @pytest.mark.parametrize(
        "cls", list(KEY_VARIANTS), ids=lambda cls: cls.__name__
    )
    def test_every_field_moves_the_key(self, cls):
        base, variants = KEY_VARIANTS[cls]
        assert set(variants) == {field.name for field in fields(cls)}
        keys = {base.key(SCALE)}
        for name, value in variants.items():
            keys.add(replace(base, **{name: value}).key(SCALE))
        assert len(keys) == len(variants) + 1

    def test_run_tiers_keyed_only_when_set(self):
        # Cells cached before tiers existed keep their identities: an
        # unset tiers field is absent from the payload, an empty one is not.
        payload = fleet_module._key_payload("fleet", self.CELL, SCALE)
        assert "tiers" not in payload
        empty = replace(self.CELL, tiers=())
        assert fleet_module._key_payload("fleet", empty, SCALE)["tiers"] == []
        assert empty.key(SCALE) != self.CELL.key(SCALE)


class TestCellDatasets:
    """A fleet cell names the datasets its stream trains on; the
    executor builds exactly those before the cell runs."""

    @pytest.mark.parametrize(
        "scenario, expected",
        [
            ("rush", {"cifar10-sim"}),
            ("mixed", {"cifar10-sim", "cifar100-sim"}),
            ("heavy", {"cifar10-sim"}),  # setups 1 and 3
            ("trace", {"cifar10-sim", "cifar100-sim"}),
        ],
    )
    def test_run_request_reads_the_simulators_stream(self, scenario, expected):
        request = FleetRunRequest(scenario, "best-fit", "sync-switch", n_jobs=3)
        stream = FleetSimulator(request.config(0.002)).stream
        assert request.datasets(0.002) == expected == {
            SETUPS[job.setup_index].dataset for job in stream
        }

    def test_trace_fed_and_shard_cells_read_their_trace(self):
        trace = (
            JobRequest(job_id=0, arrival=0.0, setup_index=2, n_workers=8),
        )
        cell = FleetRunRequest("trace", "fifo", "bsp", trace=trace)
        shard = FleetShardRequest(
            "trace", 0, 1, trace, pool_size=16, scheduler="fifo",
            sync_policy="bsp",
        )
        assert cell.datasets(SCALE) == shard.datasets(SCALE) == {"cifar100-sim"}

    def test_rush_best_fit_cell_builds_no_cifar100(self, tmp_path, monkeypatch):
        seen = []
        execute = fleet_module._execute_fleet_cell

        def recording(payload):
            seen.append(sorted(datasets_module._CACHE))
            return execute(payload)

        monkeypatch.setattr(datasets_module, "_CACHE", {})
        monkeypatch.setattr(fleet_module, "_execute_fleet_cell", recording)
        fleet_grid(
            scenario="rush",
            schedulers=("best-fit",),
            policies=("sync-switch",),
            scale=0.002,
            jobs=1,
            cache_dir=tmp_path,
            n_jobs=3,
        )
        assert seen == [["cifar10-sim"]]  # built before the cell ran
        assert sorted(datasets_module._CACHE) == ["cifar10-sim"]


class TestFleetGrid:
    def test_grid_covers_all_cells(self, tiny_grid):
        grid, _ = tiny_grid
        assert set(grid) == {("fifo", "sync-switch"), ("fifo", "bsp")}
        for summary in grid.values():
            assert isinstance(summary, FleetSummary)
            assert summary.n_jobs == 2

    def test_cached_cells_never_resimulated(self, tiny_grid, monkeypatch):
        grid, cache = tiny_grid

        def explode(config):
            raise AssertionError("cache miss: fleet cell resimulated")

        monkeypatch.setattr(fleet_module, "simulate_fleet", explode)
        again = fleet_grid(
            scenario="rush",
            schedulers=("fifo",),
            policies=("sync-switch", "bsp"),
            seed=0,
            scale=SCALE,
            n_jobs=2,
            cache_dir=cache,
        )
        assert {
            key: summary.to_dict() for key, summary in again.items()
        } == {key: summary.to_dict() for key, summary in grid.items()}

    def test_cache_entries_are_valid_json(self, tiny_grid):
        _, cache = tiny_grid
        entries = sorted(cache.glob("*.json"))
        assert len(entries) == 2
        for path in entries:
            data = json.loads(path.read_text(encoding="utf-8"))
            assert FleetSummary.from_dict(data).scenario == "rush"
        assert not list(cache.glob("*.tmp"))

    def test_a_leaked_worker_fails_the_cell(self, tmp_path, monkeypatch):
        """Every fleet cell runs the invariant checker, with nothing to
        arm it: a pool that loses a worker on release fails the cell at
        the next event instead of serving the stream short-handed."""
        release = WorkerPool.release
        monkeypatch.setattr(
            WorkerPool,
            "release",
            lambda pool, workers: release(pool, workers[1:]),
        )
        with pytest.raises(FleetError, match="pool partition violated"):
            fleet_grid(
                scenario="rush",
                schedulers=("fifo",),
                policies=("bsp",),
                scale=0.002,
                n_jobs=2,
                jobs=1,
                cache_dir=tmp_path,
            )
        assert not list(tmp_path.glob("*.json"))


class TestFleetReportAndArtifact:
    def test_report_rows(self, tiny_grid):
        grid, _ = tiny_grid
        report = fleet_report(grid, "rush")
        assert len(report.rows) == 2
        assert "mean_jct_s" in report.columns
        schedulers = {row["scheduler"] for row in report.rows}
        assert schedulers == {"fifo"}

    def test_write_summary_artifact(self, tiny_grid, tmp_path):
        grid, _ = tiny_grid
        _, _, target = run_mode(
            MODES["grid"],
            out=tmp_path / "fleet_summary.json",
            result=grid,
            scenario="rush",
            scale=SCALE,
            seed=0,
        )
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload["scenario"] == "rush"
        assert len(payload["cells"]) == 2
        assert {cell["sync_policy"] for cell in payload["cells"]} == {
            "bsp",
            "sync-switch",
        }

    def test_artifact_registered(self):
        assert "fleet" in ARTIFACTS

    def test_artifact_skipped_by_union_prefetch(self, tmp_path):
        # The fleet artifact is not expressible as training cells, so a
        # cross-artifact union prefetch must not simulate anything.
        runner = ExperimentRunner(
            scale=SCALE, seeds=1, cache_dir=tmp_path, jobs=1
        )
        assert prefetch_union(runner, [ARTIFACTS["fleet"]]) == 0
        assert list(tmp_path.glob("*.json")) == []
