"""What each command imports, asserted on ``sys.modules`` in a child.

Start-up time is mostly imports, so these tests pin the import surface
itself (never a timing): ``import repro.cli`` and a cache-hit
``report`` stay free of numpy and the training stack, a cache miss
loads that stack exactly at the runner's miss boundary, and a pooled
run loads it, and builds the batch's datasets, in the parent before
the pool exists, so that no worker imports it or builds one again.
Each probe runs in a fresh interpreter, because this process has long
since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SWEEP = ["--quiet", "report", "fig5b", "fig10", "--scale", "0.002",
         "--seeds", "1", "--jobs", "1"]

#: Run ``main(ARGV)`` and print the loaded modules; ``PROBE`` (set by a
#: test) runs first and may leave named snapshots in ``SNAPSHOTS``.
CHILD = """
import json, sys
SNAPSHOTS = {}
def snapshot(name):
    SNAPSHOTS.setdefault(name, sorted(sys.modules))
PROBE
from repro.cli import main
code = main(ARGV) if ARGV is not None else 0
sys.stdout.flush()
SNAPSHOTS["end"] = sorted(sys.modules)
print("\\n" + json.dumps({"code": code, "snapshots": SNAPSHOTS}))
"""

#: Record the loaded modules when the executor first looks a cell up
#: and when it starts executing the misses.
MISS_BOUNDARY_PROBE = """
from repro.experiments import executor
lookup, inline = executor.disk_load, executor.ParallelExecutor._execute_inline
def disk_load(*args, **kwargs):
    snapshot("first_lookup")
    return lookup(*args, **kwargs)
def _execute_inline(self, pending, results):
    snapshot("first_cell")
    return inline(self, pending, results)
executor.disk_load = disk_load
executor.ParallelExecutor._execute_inline = _execute_inline
"""

#: Record the loaded modules and the dataset memo when the process
#: pool is constructed; from then on building a dataset raises, so a
#: pool worker that builds one fails the run.
POOL_PROBE = """
import concurrent.futures
from concurrent.futures.process import ProcessPoolExecutor
class RecordingPool(ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        snapshot("pool_created")
        datasets = sys.modules["repro.mlcore.datasets"]
        SNAPSHOTS["pool_datasets"] = sorted(datasets._CACHE)
        def forbidden(self, config):
            raise AssertionError(f"{config.name} built after the pool forked")
        datasets.SyntheticDataset.__init__ = forbidden
        super().__init__(*args, **kwargs)
concurrent.futures.ProcessPoolExecutor = RecordingPool
"""

TRAINING_STACK = {
    "numpy",
    "repro.core.runtime.elastic",
    "repro.distsim.engines.registry",
    "repro.distsim.trainer",
    "repro.mlcore.models",
}


def run_child(argv, cache_dir, probe="") -> dict[str, set[str]]:
    """Module-name snapshots of a child that ran ``main(argv)``."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env.update(
        PYTHONPATH=str(SRC),
        REPRO_CACHE_DIR=str(cache_dir),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    script = CHILD.replace("PROBE", probe).replace("ARGV", repr(argv))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    payload = json.loads(done.stdout.rsplit("\n", 2)[-2])
    assert payload["code"] == 0
    return {name: set(mods) for name, mods in payload["snapshots"].items()}


def loaded_under(modules: set[str], *prefixes: str) -> list[str]:
    """Members of ``modules`` that are, or live under, a prefix."""
    return sorted(
        name
        for name in modules
        if any(name == p or name.startswith(p + ".") for p in prefixes)
    )


@pytest.fixture(scope="module")
def cold_sweep(tmp_path_factory):
    """One cold ``report fig5b fig10``: its snapshots and the cache it left."""
    cache_dir = tmp_path_factory.mktemp("sweep-cache")
    return run_child(SWEEP, cache_dir, MISS_BOUNDARY_PROBE), cache_dir


def test_importing_the_cli_loads_no_numpy_and_no_training_stack(tmp_path):
    end = run_child(None, tmp_path)["end"]
    assert "repro.cli" in end
    assert loaded_under(
        end,
        "numpy",
        "repro.fleet.fleet_sim",
        "repro.distsim.engines",
        "repro.mlcore",
        "repro.commands",
    ) == []


def test_the_linter_loads_nothing_of_the_program_it_lints(tmp_path):
    # Every rule reads source text; none imports the modules it checks.
    end = run_child(["--quiet", "lint", "--check"], tmp_path)["end"]
    assert "repro.analysis.rules" in end
    assert loaded_under(
        end,
        "numpy",
        "repro.experiments",
        "repro.fleet",
        "repro.distsim",
    ) == []


def test_cache_miss_loads_the_stack_at_the_miss_boundary(cold_sweep):
    snapshots, _cache_dir = cold_sweep
    # looking the cells up needs none of it ...
    assert loaded_under(
        snapshots["first_lookup"], "numpy", "repro.experiments.materialize"
    ) == []
    # ... and it is all there before the first missing cell runs
    assert "repro.experiments.materialize" in snapshots["first_cell"]
    assert TRAINING_STACK <= snapshots["first_cell"]


def test_cache_hit_report_never_loads_numpy_or_the_layers_below(cold_sweep):
    _snapshots, cache_dir = cold_sweep
    blobs = sorted(cache_dir.glob("*.json"))
    assert len(blobs) == 13
    end = run_child(SWEEP, cache_dir)["end"]
    assert loaded_under(
        end,
        "numpy",
        "repro.core",
        "repro.fleet",
        "repro.distsim.engines",
        "repro.mlcore",
        "repro.experiments.materialize",
        "multiprocessing",
    ) == []
    assert sorted(cache_dir.glob("*.json")) == blobs  # nothing re-trained


@pytest.mark.parametrize(
    "argv, needs, datasets",
    [
        (
            ["--quiet", "report", "fig5b", "--scale", "0.002", "--seeds", "1",
             "--jobs", "2"],
            TRAINING_STACK | {"repro.experiments.materialize"},
            {"cifar10-sim"},  # setup 1 only
        ),
        (
            ["--quiet", "fleet", "--scenario", "trace", "--jobs", "4",
             "--scale", "0.001", "--procs", "2", "--out", "OUT"],
            TRAINING_STACK | {"repro.fleet.fleet_sim"},
            {"cifar10-sim", "cifar100-sim"},  # setups 1 and 2
        ),
    ],
    ids=["report-jobs-2", "fleet-procs-2"],
)
def test_pooled_runs_load_the_stack_in_the_parent_first(
    argv, needs, datasets, tmp_path
):
    argv = [str(tmp_path / "out.json") if arg == "OUT" else arg for arg in argv]
    snapshots = run_child(argv, tmp_path / "cache", POOL_PROBE)
    assert "pool_created" in snapshots, "the run never created a pool"
    assert needs <= snapshots["pool_created"]
    # The batch's datasets, and no others, are built before the fork;
    # the probe fails the run if a worker builds one.
    assert snapshots["pool_datasets"] == datasets
