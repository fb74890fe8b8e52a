"""Micro-rows: each drives one layer directly, from outside the program.

Every row is the best of :data:`REPEATS` timings of a fixed, seeded
piece of work on the setup-1 shape (``resnet32-sim`` on
``cifar10-sim``, 8 workers), so a change to one layer shows in its own
row before it shows end to end.  The rows need ``repro`` importable and
BLAS pinned, which ``run.py`` arranges before importing this module.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.policies import ConfigurationPolicy, PolicyManager, TimingPolicy
from repro.core.runtime import ElasticTrainingRun
from repro.distsim.cluster import ClusterSpec
from repro.distsim.engines import known_protocols, make_engine
from repro.distsim.job import JobConfig, TrainingPlan
from repro.distsim.trainer import DistributedTrainer
from repro.errors import DivergenceError
from repro.experiments.executor import ParallelExecutor, disk_load, disk_store
from repro.experiments.fleet import FleetShardRequest
from repro.fleet.fleet_sim import simulate_fleet
from repro.fleet.metrics import merge_fleet_summaries
from repro.fleet.workload import TRACE_SCENARIOS, assign_shards, trace_stream
from repro.mlcore.datasets import make_dataset
from repro.mlcore.models import make_model
from repro.obs import Tracer, write_chrome_trace
from repro.rng import make_rng

from ledger.workloads import ROOT, child_env, scratch

__all__ = ["REPEATS", "calibration_row", "run_all"]

REPEATS = 3
WORKERS = 8
ENGINE_STEPS = 2048
ENGINE_BATCH = 16
STREAM_JOBS = 10_000
NOOP_CELLS = 64


def best(work, repeats: int = REPEATS) -> float:
    """Seconds of the fastest of ``repeats`` calls of ``work()``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        work()
        times.append(time.perf_counter() - start)
    return min(times)


def _job(total_steps: int, batch_size: int = 128) -> JobConfig:
    return JobConfig(
        model="resnet32-sim",
        dataset="cifar10-sim",
        total_steps=total_steps,
        batch_size=batch_size,
        base_lr=0.004,
        eval_every=max(total_steps // 4, 64),
        loss_log_every=max(total_steps // 16, 32),
        seed=0,
    )


# ----------------------------------------------------------------------
# mlcore
# ----------------------------------------------------------------------


def _kernel_rows() -> dict[str, float]:
    model = make_model("resnet32-sim")
    dataset = make_dataset("cifar10-sim")
    rng = make_rng(0)
    params = model.init_params(0)
    rows = {}
    for batch, calls in ((16, 200), (128, 60)):
        picks = rng.integers(0, len(dataset.x_train), size=(WORKERS, batch))
        stack = np.repeat(params[None, :], WORKERS, axis=0)
        inputs, labels = dataset.x_train[picks], dataset.y_train[picks]

        def batched():
            for _ in range(calls):
                model.loss_and_grad_batch(stack, inputs, labels)

        rows[f"mlcore.models.grad_batch_k8_b{batch}.us"] = (
            best(batched) / calls * 1e6
        )
    picks = rng.integers(0, len(dataset.x_train), size=1024)
    inputs, labels = dataset.x_train[picks], dataset.y_train[picks]

    def single():
        for _ in range(40):
            model.loss_and_grad(params, inputs, labels)

    rows["mlcore.models.grad_single_b1024.us"] = best(single) / 40 * 1e6

    def evaluate():
        for _ in range(40):
            model.evaluate(params, dataset.x_test, dataset.y_test)

    rows["mlcore.models.evaluate.us"] = best(evaluate) / 40 * 1e6
    return rows


def calibration_row() -> dict[str, float]:
    # The floor reference: a 256x256 float32 matmul chain, the same
    # work as repro.experiments.hotpath.calibration_score (kept here so
    # the ledger does not depend on the module it supersedes).
    a = make_rng(0).normal(size=(256, 256)).astype(np.float32)

    def chain():
        b = a
        for _ in range(32):
            b = a @ b
            b *= 1e-3

    return {"mlcore.calibration.matmul_iter_per_s": 32 / best(chain)}


# ----------------------------------------------------------------------
# distsim
# ----------------------------------------------------------------------


def _engine_rows() -> dict[str, float]:
    trainer = DistributedTrainer(
        _job(ENGINE_STEPS, ENGINE_BATCH), ClusterSpec(n_workers=WORKERS)
    )
    rows = {}
    for protocol in known_protocols():
        rates = []
        for _ in range(REPEATS):
            session = trainer.new_session()
            start = time.perf_counter()
            try:
                make_engine(protocol).run(session, ENGINE_STEPS)
            except DivergenceError:
                pass  # the rate over the completed prefix is still valid
            rates.append(session.step / (time.perf_counter() - start))
        rows[f"distsim.engines.{protocol}.steps_per_s"] = max(rates)
    return rows


def _trainer_rows() -> dict[str, float]:
    job = _job(256)
    trainer = DistributedTrainer(job, ClusterSpec(n_workers=WORKERS))
    session = trainer.new_session()
    server = session.ps
    grad = np.full_like(server.peek(), 1e-6)

    def pull_push_release():
        for _ in range(2000):
            snapshot, _version = server.pull()
            server.push(grad, 1e-3)
            server.release(snapshot)

    rows = {
        "distsim.parameter_server.pull_push_release.us": (
            best(pull_push_release) / 2000 * 1e6
        ),
        "distsim.trainer.new_session.ms": best(trainer.new_session) * 1e3,
    }
    plan = TrainingPlan.static("asp")
    finished = []
    for _ in range(REPEATS):
        session = trainer.new_session()
        make_engine("asp").run(session, job.total_steps)
        finished.append(session)
    rows["distsim.trainer.finalize.ms"] = (
        min(best(lambda s=s: trainer.finalize(s, plan), 1) for s in finished)
        * 1e3
    )
    return rows


# ----------------------------------------------------------------------
# core
# ----------------------------------------------------------------------


def _elastic_rows() -> dict[str, float]:
    def start() -> ElasticTrainingRun:
        return ElasticTrainingRun(
            job=_job(400),
            cluster_spec=ClusterSpec(n_workers=WORKERS),
            policies=PolicyManager(
                timing=TimingPolicy(0.0625, source="ledger"),
                config=ConfigurationPolicy(),
            ),
        )

    rows = {"core.runtime.elastic.init.ms": best(start) * 1e3}
    run = start()
    run.run_to_tail()
    rows["core.runtime.elastic.fork.ms"] = best(run.fork) * 1e3
    sizes = iter((WORKERS // 2, WORKERS) * REPEATS)

    def resize():
        run.resize(next(sizes))

    # Alternating shrink/regrow at one pause instant: each call is one
    # checkpoint -> evict/restore -> restart cycle.
    rows["core.runtime.elastic.resize.ms"] = best(resize, 2 * REPEATS) * 1e3
    return rows


# ----------------------------------------------------------------------
# experiments
# ----------------------------------------------------------------------


class _NoopRequest:
    """A cell whose work is nothing: what is left is the executor."""

    def __init__(self, index: int):
        self.index = index

    def key(self, scale: float) -> str:
        return f"noop-{self.index:04d}"


def _noop_cell(payload: tuple) -> tuple[str, dict]:
    _scale, cache_dir, request, key = payload
    result = {"index": request.index}
    disk_store(Path(cache_dir), key, result)
    return key, result


def _executor_rows() -> dict[str, float]:
    requests = [_NoopRequest(index) for index in range(NOOP_CELLS)]
    rows = {}
    for jobs, name, scale in (
        (1, "experiments.executor.noop_inline.us_per_cell", 1e6),
        (2, "experiments.executor.noop_pool2.ms_per_cell", 1e3),
    ):

        def batch():
            with tempfile.TemporaryDirectory(dir=scratch()) as cache:
                ParallelExecutor(
                    scale=1.0,
                    cache_dir=Path(cache),
                    jobs=jobs,
                    cell_fn=_noop_cell,
                    decode=dict,
                ).execute(requests)

        rows[name] = best(batch) / NOOP_CELLS * scale
    with tempfile.TemporaryDirectory(dir=scratch()) as cache:
        trainer = DistributedTrainer(_job(64), ClusterSpec(n_workers=WORKERS))
        blob = trainer.run(TrainingPlan.static("asp")).to_dict()
        cache_dir = Path(cache)

        def store():
            for index in range(50):
                disk_store(cache_dir, f"blob-{index}", blob)

        def load():
            for index in range(50):
                disk_load(cache_dir, f"blob-{index}")

        rows["experiments.executor.disk_store.us"] = best(store) / 50 * 1e6
        rows["experiments.executor.disk_load.us"] = best(load) / 50 * 1e6
    return rows


# ----------------------------------------------------------------------
# fleet
# ----------------------------------------------------------------------


def _fleet_rows() -> dict[str, float]:
    scenario = TRACE_SCENARIOS["trace"]
    streams = []

    def generate():
        streams.append(trace_stream(scenario, 0.001, 0, n_jobs=STREAM_JOBS))

    rows = {
        "fleet.workload.trace_stream.us_per_job": (
            best(generate) / STREAM_JOBS * 1e6
        )
    }
    stream = streams[-1]
    rows["fleet.workload.assign_shards.us_per_job"] = (
        best(lambda: assign_shards(stream, 4, 0)) / STREAM_JOBS * 1e6
    )
    shards = [
        simulate_fleet(
            FleetShardRequest(
                scenario="trace",
                shard_index=index,
                n_shards=2,
                trace=shard,
                pool_size=scenario.pool_size // scenario.shards,
                scheduler="slo",
                sync_policy="sync-switch",
            ).config(0.001)
        )
        for index, shard in enumerate(assign_shards(stream[:8], 2, 0))
    ]
    rows["fleet.metrics.merge.ms"] = (
        best(lambda: merge_fleet_summaries(shards)) * 1e3
    )
    return rows


# ----------------------------------------------------------------------
# cli, obs, analysis
# ----------------------------------------------------------------------


def _cli_rows() -> dict[str, float]:
    env = child_env(scratch())

    def python(*argv: str):
        return lambda: subprocess.run(
            [sys.executable, *argv],
            env=env,
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            check=True,
        )

    bare = best(python("-c", "pass"))
    return {
        "cli.import.ms": (best(python("-c", "import repro.cli")) - bare) * 1e3,
        "cli.list.ms": best(python("-m", "repro", "--quiet", "list")) * 1e3,
    }


def _obs_rows() -> dict[str, float]:
    tracers = []

    def spans():
        tracer = Tracer("update")
        for index in range(20_000):
            tracer.span("update", "update", index * 0.5, 0.25, pid=1, tid=index % 8)
        tracers.append(tracer)

    rows = {"obs.tracer.span.us": best(spans) / 20_000 * 1e6}
    events = tracers[-1].events
    with tempfile.TemporaryDirectory(dir=scratch()) as out:
        rows["obs.export.write.us_per_event"] = (
            best(lambda: write_chrome_trace(events, Path(out) / "trace.json"))
            / len(events)
            * 1e6
        )
    return rows


def _analysis_rows() -> dict[str, float]:
    from repro.analysis import analyze_paths

    src = ROOT / "src"
    return {
        "analysis.lint_src.ms": best(lambda: analyze_paths([src], ROOT)) * 1e3
    }


def run_all() -> dict[str, float]:
    """Every micro-row, by metric name."""
    rows = {}
    for group in (
        _kernel_rows,
        calibration_row,
        _engine_rows,
        _trainer_rows,
        _elastic_rows,
        _executor_rows,
        _fleet_rows,
        _cli_rows,
        _obs_rows,
        _analysis_rows,
    ):
        rows.update(group())
    return rows
