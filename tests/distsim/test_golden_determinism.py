"""Golden-determinism suite: the kernel rewrite must be bit-identical.

Each configuration runs one small-but-real training job through a
protocol engine and hashes the full ``TrainingResult.to_dict()``.  The
hashes committed in ``tests/data/golden_hashes.json`` were produced
*before* the zero-copy kernel rewrite (PR 4) — ``osp`` and ``casp``
before the single-vector and stacked passes became one (PR 22) — so
any change to the numeric stream — parameter updates, RNG consumption
order, telemetry contents — fails this suite.

The committed hashes are exact float bit patterns and therefore depend
on the BLAS build: on a machine whose numpy produces different matmul
roundings, set ``REPRO_GOLDEN_SKIP=1`` to skip the cross-machine hash
comparison (the machine-independent determinism and jobs=1-vs-jobs=N
parity tests still run).

Regenerate after an *intentional* numeric change with::

    PYTHONPATH=src python tests/distsim/test_golden_determinism.py regen
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

import pytest

from repro.distsim.cluster import ClusterSpec
from repro.distsim.job import JobConfig, TrainingPlan
from repro.distsim.result import TrainingResult
from repro.distsim.trainer import DistributedTrainer

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "golden_hashes.json"

#: Small but real: 4 workers, 240 steps, ambient noise on, eval + loss
#: logging exercised, every engine's default options.
_GOLDEN_JOB = dict(
    model="resnet32-sim",
    dataset="cifar10-sim",
    total_steps=240,
    batch_size=32,
    base_lr=0.004,
    eval_every=80,
    loss_log_every=40,
    seed=1,
)

PLANS: dict[str, TrainingPlan] = {
    "bsp": TrainingPlan.static("bsp"),
    "asp": TrainingPlan.static("asp"),
    "ssp": TrainingPlan.static("ssp"),
    "dssp": TrainingPlan.static("dssp"),
    "osp": TrainingPlan.static("osp"),
    "casp": TrainingPlan.static("casp"),
    "switch-bsp-asp": TrainingPlan.schedule(
        ("bsp", "asp"), (0.25, 0.75)
    ),
}


def build_result(name: str) -> TrainingResult:
    """Run the golden configuration ``name`` from scratch."""
    job = JobConfig(**_GOLDEN_JOB)
    trainer = DistributedTrainer(job, ClusterSpec(n_workers=4))
    return trainer.run(PLANS[name])


def result_hash(result: TrainingResult) -> str:
    """Canonical sha256 of the full result payload."""
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _skip_unless_golden_machine():
    if os.environ.get("REPRO_GOLDEN_SKIP", "") not in ("", "0"):
        pytest.skip("REPRO_GOLDEN_SKIP set (BLAS float bits differ here)")


@pytest.fixture(scope="module")
def golden() -> dict:
    assert GOLDEN_PATH.exists(), (
        f"missing {GOLDEN_PATH}; regenerate with "
        "`PYTHONPATH=src python tests/distsim/test_golden_determinism.py regen`"
    )
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(PLANS))
def test_golden_hash_unchanged(name, golden):
    """Engine output matches the committed pre-rewrite hash exactly."""
    _skip_unless_golden_machine()
    assert name in golden["hashes"], f"no committed hash for {name!r}"
    assert result_hash(build_result(name)) == golden["hashes"][name], (
        f"{name}: TrainingResult changed vs the committed golden hash — "
        "the hot-path kernel is no longer bit-identical"
    )


def test_repeated_runs_are_identical():
    """Machine-independent: two fresh runs produce identical payloads."""
    first = build_result("asp")
    second = build_result("asp")
    assert first.to_dict() == second.to_dict()


def test_jobs_parallelism_is_bit_identical(tmp_path):
    """jobs=1 and jobs=2 executor paths yield byte-identical results."""
    from repro.experiments.runner import ExperimentRunner
    from repro.experiments.setups import SETUPS

    specs = [
        {"kind": "switch", "percent": 6.25},
        {"kind": "static", "protocol": "asp"},
    ]
    results = {}
    for jobs in (1, 2):
        runner = ExperimentRunner(
            scale=0.005, seeds=2, cache_dir=tmp_path / f"jobs{jobs}", jobs=jobs
        )
        runner.prefetch([(SETUPS[1], spec) for spec in specs], seeds=2)
        results[jobs] = [
            runner.run(SETUPS[1], spec, seed).to_dict()
            for spec in specs
            for seed in range(2)
        ]
    assert results[1] == results[2]


def _regenerate() -> None:
    hashes = {name: result_hash(build_result(name)) for name in sorted(PLANS)}
    import numpy as np

    # Read-modify-write: tests/core/test_controller.py keeps its
    # ``online`` section in the same goldens file.
    payload = (
        json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        if GOLDEN_PATH.exists()
        else {}
    )
    payload.update(
        {
            "job": _GOLDEN_JOB,
            "n_workers": 4,
            "numpy": np.__version__,
            "hashes": hashes,
        }
    )
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN_PATH}")
    for name, value in hashes.items():
        print(f"  {name}: {value}")


if __name__ == "__main__":
    if len(sys.argv) == 2 and sys.argv[1] == "regen":
        _regenerate()
    else:
        print(__doc__)
        sys.exit(2)
