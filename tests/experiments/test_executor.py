"""Tests for the parallel experiment executor and the atomic cache."""

import json
import threading

import pytest

import repro.experiments.executor as executor_module
import repro.mlcore.datasets as datasets_module
from repro.distsim.result import TrainingResult
from repro.errors import ConfigurationError
from repro.experiments.executor import (
    ParallelExecutor,
    RunRequest,
    cache_key,
    disk_load,
    disk_store,
    resolve_jobs,
)
from repro.experiments.runner import ExperimentRunner
from repro.experiments.setups import SETUPS
from repro.fleet.metrics import FleetSummary

SCALE = 0.008


def requests():
    """A small 2-spec x 2-seed batch (4 unique cells)."""
    return [
        RunRequest(SETUPS[1], {"kind": "switch", "percent": percent}, seed)
        for percent in (0.0, 100.0)
        for seed in (0, 1)
    ]


def tiny_result(**overrides) -> TrainingResult:
    data = {
        "plan": "bsp:100%",
        "seed": 0,
        "n_workers": 8,
        "total_steps": 400,
        "completed_steps": 400,
        "total_time": 12.5,
        "diverged": False,
        "diverged_step": None,
        "converged": True,
        "converged_accuracy": 0.9,
        "reported_accuracy": 0.9,
        "best_accuracy": 0.91,
        "final_loss": 0.3,
        "eval_steps": [400],
        "eval_times": [12.5],
        "eval_accuracies": [0.9],
        "loss_steps": [400],
        "loss_values": [0.3],
        "segment_summary": [],
        "staleness": {"mean": 0.0, "p95": 0.0, "max": 0.0},
        "switch_count": 0,
        "total_overhead": 0.0,
        "images_processed": 51200,
    }
    data.update(overrides)
    return TrainingResult.from_dict(data)


class TestResolveJobs:
    def test_default_is_inline(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs() == 4

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs(2) == 2

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ConfigurationError):
            resolve_jobs()

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_jobs(0)


class TestAtomicCache:
    def test_store_load_roundtrip(self, tmp_path):
        result = tiny_result()
        disk_store(tmp_path, "k", result)
        assert disk_load(tmp_path, "k").to_dict() == result.to_dict()

    def test_no_temp_files_left_behind(self, tmp_path):
        disk_store(tmp_path, "k", tiny_result())
        assert [path.name for path in tmp_path.iterdir()] == ["k.json"]

    def test_interrupted_write_preserves_old_entry(self, tmp_path, monkeypatch):
        """Regression: a killed writer must never truncate a good entry."""
        original = tiny_result()
        disk_store(tmp_path, "k", original)

        def exploding_dump(obj, handle, **kwargs):
            handle.write('{"plan": "tru')  # simulate a mid-dump crash
            raise RuntimeError("interrupted")

        monkeypatch.setattr(executor_module.json, "dump", exploding_dump)
        with pytest.raises(RuntimeError):
            disk_store(tmp_path, "k", tiny_result(total_time=99.0))
        monkeypatch.undo()
        reloaded = disk_load(tmp_path, "k")
        assert reloaded is not None
        assert reloaded.to_dict() == original.to_dict()
        assert [path.name for path in tmp_path.iterdir()] == ["k.json"]

    def test_corrupt_entry_ignored(self, tmp_path):
        (tmp_path / "k.json").write_text('{"plan": "tru', encoding="utf-8")
        assert disk_load(tmp_path, "k") is None

    @pytest.mark.parametrize(
        "decode",
        [TrainingResult.from_dict, FleetSummary.from_dict],
        ids=["training-result", "fleet-summary"],
    )
    @pytest.mark.parametrize(
        "blob",
        [b'{"plan": "tru', b'{"plan": "\xff"}', b'"a bare string"'],
        ids=["truncated", "non-utf8", "wrong-top-level-type"],
    )
    def test_malformed_blob_is_a_miss(self, tmp_path, blob, decode):
        (tmp_path / "k.json").write_bytes(blob)
        assert disk_load(tmp_path, "k", decode) is None

    def test_disabled_cache(self):
        disk_store(None, "k", tiny_result())
        assert disk_load(None, "k") is None


class TestCacheKey:
    def test_stable_across_spec_ordering(self):
        spec_a = {"kind": "switch", "percent": 25.0}
        spec_b = {"percent": 25.0, "kind": "switch"}
        assert cache_key(SETUPS[1], spec_a, 0, SCALE) == cache_key(
            SETUPS[1], spec_b, 0, SCALE
        )

    def test_distinguishes_cells(self):
        spec = {"kind": "switch", "percent": 25.0}
        keys = {
            cache_key(SETUPS[1], spec, 0, SCALE),
            cache_key(SETUPS[1], spec, 1, SCALE),
            cache_key(SETUPS[2], spec, 0, SCALE),
            cache_key(SETUPS[1], spec, 0, 0.01),
        }
        assert len(keys) == 4


class TestParallelExecutor:
    def test_deduplicates_batch(self, tmp_path):
        request = requests()[0]
        executor = ParallelExecutor(scale=SCALE, cache_dir=tmp_path, jobs=1)
        results = executor.execute([request, request, request])
        assert len(results) == 1

    def test_cached_cell_never_recomputed(self, tmp_path):
        """A cell computed by a sibling is loaded, not re-executed."""
        request = requests()[0]
        sentinel = tiny_result(total_time=123456.0)
        disk_store(tmp_path, request.key(SCALE), sentinel)
        executor = ParallelExecutor(scale=SCALE, cache_dir=tmp_path, jobs=2)
        results = executor.execute([request])
        assert results[request.key(SCALE)].total_time == 123456.0

    def test_malformed_cell_is_recomputed_and_overwritten(self, tmp_path):
        request = requests()[0]
        blob = tmp_path / f"{request.key(SCALE)}.json"
        blob.write_bytes(b'{"plan": "\xff"}')
        executor = ParallelExecutor(scale=SCALE, cache_dir=tmp_path, jobs=1)
        results = executor.execute([request])
        stored = json.loads(blob.read_text(encoding="utf-8"))
        assert stored == results[request.key(SCALE)].to_dict()

    def test_jobs_parallel_bit_identical_to_serial(self, tmp_path):
        serial = ExperimentRunner(
            scale=SCALE, seeds=2, cache_dir=tmp_path / "serial", jobs=1
        ).run_batch(requests())
        parallel = ExperimentRunner(
            scale=SCALE, seeds=2, cache_dir=tmp_path / "parallel", jobs=4
        ).run_batch(requests())
        assert [run.to_dict() for run in serial] == [
            run.to_dict() for run in parallel
        ]

    def test_two_executors_share_cache_without_corruption(self, tmp_path):
        serial = ExperimentRunner(
            scale=SCALE, seeds=2, cache_dir=tmp_path / "serial", jobs=1
        ).run_batch(requests())

        shared = tmp_path / "shared"
        shared.mkdir()
        outputs = {}

        def run_executor(name):
            executor = ParallelExecutor(scale=SCALE, cache_dir=shared, jobs=2)
            outputs[name] = executor.execute(requests())

        threads = [
            threading.Thread(target=run_executor, args=(name,))
            for name in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        expected = {
            request.key(SCALE): run.to_dict()
            for request, run in zip(requests(), serial)
        }
        for name in ("a", "b"):
            assert {
                key: run.to_dict() for key, run in outputs[name].items()
            } == expected
        # every cache entry on disk is complete, valid JSON
        entries = sorted(shared.glob("*.json"))
        assert len(entries) == len(expected)
        for path in entries:
            data = json.loads(path.read_text(encoding="utf-8"))
            assert TrainingResult.from_dict(data).to_dict() == expected[
                path.stem
            ]
        assert not list(shared.glob("*.tmp"))


class TestRunnerBatchAPI:
    def test_run_batch_preserves_request_order(self, tmp_path):
        runner = ExperimentRunner(
            scale=SCALE, seeds=2, cache_dir=tmp_path, jobs=1
        )
        batch = runner.run_batch(requests())
        singles = [
            runner.run(request.setup, request.spec, request.seed)
            for request in requests()
        ]
        assert [run.to_dict() for run in batch] == [
            run.to_dict() for run in singles
        ]

    def test_prefetch_warms_memory_cache(self, tmp_path):
        runner = ExperimentRunner(
            scale=SCALE, seeds=2, cache_dir=tmp_path, jobs=1
        )
        runner.prefetch([(SETUPS[1], {"kind": "switch", "percent": 0.0})])
        assert len(runner._memory) == 2
        cached = runner.run(SETUPS[1], {"kind": "switch", "percent": 0.0}, 0)
        assert cached is runner._memory[
            runner._key(SETUPS[1], {"kind": "switch", "percent": 0.0}, 0)
        ]

    def test_sweep_matches_serial_per_cell_runs(self, tmp_path):
        runner = ExperimentRunner(
            scale=SCALE, seeds=1, cache_dir=tmp_path / "a", jobs=2
        )
        sweep = runner.sweep(SETUPS[1], percents=(0.0, 100.0), seeds=1)
        reference = ExperimentRunner(
            scale=SCALE, seeds=1, cache_dir=tmp_path / "b", jobs=1
        )
        for percent, runs in sweep.items():
            expected = reference.run(
                SETUPS[1], {"kind": "switch", "percent": percent}, 0
            )
            assert [run.to_dict() for run in runs] == [expected.to_dict()]


class TestDatasetsBeforeCells:
    """The executor builds the pending cells' datasets, and only those,
    before the first cell runs (and before a pool would fork)."""

    @pytest.fixture
    def memo(self, monkeypatch):
        """An empty dataset memo, and the order datasets get built in."""
        built = []
        make_dataset = datasets_module.make_dataset

        def recording(name):
            if name not in datasets_module._CACHE:
                built.append(name)
            return make_dataset(name)

        monkeypatch.setattr(datasets_module, "_CACHE", {})
        monkeypatch.setattr(datasets_module, "make_dataset", recording)
        return built

    def execute(self, tmp_path, batch):
        """Run ``batch`` inline; the memo each cell saw on entry."""
        seen = {}

        def cell(payload):
            _scale, _cache_dir, request, key = payload
            seen[request.setup.index] = sorted(datasets_module._CACHE)
            return key, tiny_result().to_dict()

        ParallelExecutor(
            scale=SCALE, cache_dir=tmp_path, jobs=1, cell_fn=cell
        ).execute(batch)
        return seen

    def test_union_built_largest_first_before_any_cell(self, tmp_path, memo):
        spec = {"kind": "static", "protocol": "bsp"}
        batch = [RunRequest(SETUPS[index], spec, 0) for index in (1, 2, 3)]
        seen = self.execute(tmp_path, batch)
        assert memo == ["cifar100-sim", "cifar10-sim"]  # 1 and 3 share one
        both = sorted(memo)
        assert seen == {1: both, 2: both, 3: both}

    def test_cached_cells_datasets_are_not_built(self, tmp_path, memo):
        spec = {"kind": "static", "protocol": "bsp"}
        cached, pending = RunRequest(SETUPS[1], spec, 0), RunRequest(
            SETUPS[2], spec, 0
        )
        disk_store(tmp_path, cached.key(SCALE), tiny_result())
        seen = self.execute(tmp_path, [cached, pending])
        assert memo == ["cifar100-sim"]
        assert seen == {2: ["cifar100-sim"]}

    def test_all_cached_batch_builds_nothing(self, tmp_path, memo):
        batch = requests()
        for request in batch:
            disk_store(tmp_path, request.key(SCALE), tiny_result())
        assert self.execute(tmp_path, batch) == {}
        assert memo == [] and datasets_module._CACHE == {}

    def test_requests_without_datasets_build_nothing(self, tmp_path, memo):
        class Opaque:
            def key(self, scale):
                return "opaque"

        ParallelExecutor(
            scale=SCALE,
            cache_dir=tmp_path,
            jobs=1,
            cell_fn=lambda payload: (payload[3], {}),
            decode=dict,
        ).execute([Opaque()])
        assert memo == []
