"""The five workloads: their commands, one measured child run, output checks.

Every workload is a ``python -m repro --quiet ...`` command run as a
fresh subprocess under the fixed protocol (see README "Run protocol"):
BLAS pinned to one thread, every ``REPRO_*`` variable scrubbed,
``REPRO_CACHE_DIR`` pointing at a fresh directory, ``PYTHONPATH=src``.
The program receives only these arguments, never a workload name.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from typing import Callable

__all__ = [
    "HERE",
    "PROCS",
    "ROOT",
    "WORKLOADS",
    "Prepared",
    "Sample",
    "Workload",
    "by_program_seed",
    "child_env",
    "digest",
    "prepare",
    "program_seeds",
    "run_once",
    "scratch",
    "verify",
]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Thread budget of the pool workload: never more processes than cores.
PROCS = min(2, len(os.sched_getaffinity(0)))


def scratch() -> Path:
    """The ledger's scratch root: inside the checkout, git-ignored."""
    root = HERE / ".work"
    root.mkdir(exist_ok=True)
    return root


def child_env(cache_dir: Path) -> dict[str, str]:
    """The scrubbed, pinned environment every measured child runs in."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    # byte-code caching as users have it; set-up's untimed run writes it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(PINNED_THREADS)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


# ----------------------------------------------------------------------
# the workload table
# ----------------------------------------------------------------------


def _paper_sweep(_seed: int, _out: Path) -> list[str]:
    return ["report", "fig5b", "fig10", "--scale", "0.002", "--seeds", "1",
            "--jobs", "1"]


def _fleet_trace(procs: int):
    def command(seed: int, out: Path) -> list[str]:
        return ["fleet", "--scenario", "trace", "--jobs", "32", "--scale",
                "0.001", "--seed", str(seed), "--procs", str(procs),
                "--out", str(out)]

    return command


def _fleet_preempt(seed: int, out: Path) -> list[str]:
    return ["fleet", "--scenario", "rush", "--jobs", "3", "--scale", "0.002",
            "--scheduler", "best-fit", "--policy", "sync-switch", "--resim",
            "exact", "--seed", str(seed), "--procs", "1", "--out", str(out)]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``panel`` is how many program seeds one run measures.  A fleet
    command's cost swings by tens of percent from one ``--seed`` to the
    next (job mix, preemption pattern), so a run measures a panel of
    consecutive program seeds derived from the benchmark seed and
    reports the panel mean; ``panel=0`` marks a command that takes no
    seed (the paper sweeps are seeded by the paper harness).

    ``prepare`` names the set-up a run needs before its first timed
    child: ``interpreter`` (an untimed ``list`` so byte-code and page
    caches are warm), ``fill`` (the cold run whose cache the warm
    workload reads) or ``reference`` (the ``--procs 1`` run whose
    ``--out`` the pool run must reproduce byte for byte).
    """

    name: str
    why: str
    #: ``(program_seed, out_path)`` -> argv after ``--quiet``
    command: Callable[[int, Path], list[str]]
    pin: str  # digest group in expected.json
    panel: int
    prepare: str = "interpreter"


FLEET_TRACE = Workload(
    "fleet_trace",
    "Datacenter trace of many tiny jobs on the tiered, sharded pool: "
    "the per-job fixed path (run set-up, fork, finalize, evaluate) has "
    "its largest share; no resize happens, so nothing is re-simulated",
    _fleet_trace(1),
    pin="fleet_trace",
    panel=8,
)

WORKLOADS = (
    Workload(
        "paper_sweep_cold",
        "Paper workflow on an empty cache: Fig. 5b switch-timing sweep plus "
        "the three Table-I setups; the gradient kernel dominates, fleet "
        "code is bypassed, the executor only writes blobs",
        _paper_sweep,
        pin="paper_sweep",
        panel=0,
    ),
    Workload(
        "paper_sweep_warm",
        "The same command on the cache the cold run left: import, cache "
        "reads and rendering are all of the work and the kernel none, so "
        "a kernel or engine change must not move it",
        _paper_sweep,
        pin="paper_sweep",
        panel=0,
        prepare="fill",
    ),
    FLEET_TRACE,
    Workload(
        "fleet_trace_procs",
        "The same stream through the process pool: pool start-up, request "
        "pickling, IPC and shard imbalance are the difference to "
        "fleet_trace; the summary must match it byte for byte",
        _fleet_trace(PROCS),
        pin="fleet_trace",
        panel=8,
        prepare="reference",
    ),
    Workload(
        "fleet_preempt",
        "Three 8-worker jobs contending for a 16-worker pool under best-fit "
        "with exact re-simulation: advance_to/resize and re-projection after "
        "every allocation change, which fleet_trace bypasses",
        _fleet_preempt,
        pin="fleet_preempt",
        panel=8,
    ),
)


def program_seeds(workload: Workload, seed: int) -> list[int]:
    """The program ``--seed`` values benchmark seed ``seed`` measures."""
    if not workload.panel:
        return [0]
    return [seed * workload.panel + offset for offset in range(workload.panel)]


# ----------------------------------------------------------------------
# one child run
# ----------------------------------------------------------------------


@dataclass
class Sample:
    """What one child run cost and left behind."""

    program_seed: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int = 0
    finished_at: float = 0.0  # time.time() when the child was reaped
    stdout: str = ""
    #: One entry per result record: simulated steps delivered, final
    #: accuracy and simulated completion time (None where not reached).
    records: list[dict] = field(default_factory=list)
    digest: str | None = None
    out_bytes: bytes | None = None
    failures: list[str] = field(default_factory=list)


@dataclass
class Prepared:
    """What set-up hands to the timed runs."""

    cache_dir: Path | None = None  # fill: the cache to read
    stdout: str | None = None  # fill: what the report must print again
    out_bytes: bytes | None = None  # reference: the --procs 1 summary ...
    reference_seed: int | None = None  # ... of this program seed
    reference_wall_s: float | None = None


def by_program_seed(samples: list[Sample]) -> dict[int, list[Sample]]:
    """``samples`` grouped by the program seed they ran."""
    groups: dict[int, list[Sample]] = {}
    for sample in samples:
        groups.setdefault(sample.program_seed, []).append(sample)
    return groups


def _run_child(
    argv: list[str], cache_dir: Path, work: Path, program_seed: int = 0
) -> Sample:
    """Run ``argv``; the returned sample holds the child's cost: wall
    from perf_counter, CPU and peak RSS of that child, its exit code.

    ``os.wait4`` reports the usage of this child and the descendants it
    reaped — not the cumulative ``RUSAGE_CHILDREN`` maximum, which
    would carry one workload's peak into the next.
    """
    with open(work / "stdout.txt", "wb") as out, open(
        work / "stderr.txt", "wb"
    ) as err:
        start = time.perf_counter()
        child = subprocess.Popen(
            argv, env=child_env(cache_dir), cwd=ROOT, stdout=out, stderr=err
        )
        _, status, usage = os.wait4(child.pid, 0)
        wall_s = time.perf_counter() - start
        finished_at = time.time()
        child.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        program_seed=program_seed,
        wall_s=wall_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=child.returncode,
        finished_at=finished_at,
    )


def digest(blobs: dict) -> str:
    """sha256 of the canonical JSON of ``blobs`` (key order irrelevant)."""
    canonical = json.dumps(blobs, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("utf-8")).hexdigest()


def _read_records(cache_dir: Path) -> tuple[dict, list[dict]]:
    """Every result blob in ``cache_dir`` and the records they hold."""
    blobs = {}
    records = []
    for path in sorted(cache_dir.glob("*.json")):
        blob = json.loads(path.read_text(encoding="utf-8"))
        blobs[path.stem] = blob
        if "jobs" in blob:  # a FleetSummary: one record per job
            for job in blob["jobs"]:
                done = job["outcome"] == "completed"
                records.append(
                    {
                        "steps": int(job["completed_steps"]),
                        "accuracy": job["accuracy"] if done else None,
                        # service time (admission to finish): the
                        # analogue of a cell's total_time; queueing
                        # delay is too chaotic at this stream length
                        "sim_time": (
                            job["finish"] - job["start"] if done else None
                        ),
                    }
                )
        else:  # a TrainingResult: one experiment cell
            records.append(
                {
                    "steps": int(blob["completed_steps"]),
                    "accuracy": blob["reported_accuracy"],
                    "sim_time": float(blob["total_time"]),
                }
            )
    if not blobs:
        raise ValueError("no result blob in the cache directory")
    return blobs, records


def run_once(
    workload: Workload,
    program_seed: int,
    prepared: Prepared,
    work: Path,
    traced: bool = False,
) -> Sample:
    """One child run of ``workload`` in ``work``, with its outputs checked.

    ``traced`` runs the same arguments through ``traced.py``, which
    leaves ``spans.json`` and ``trace.json`` in ``work``.
    """
    work.mkdir(parents=True)
    cache_dir = prepared.cache_dir or work / "cache"
    cache_dir.mkdir(exist_ok=True)
    out_path = work / "out.json"
    arguments = ["--quiet", *workload.command(program_seed, out_path)]
    if traced:
        launcher = [str(HERE / "traced.py"), str(work), repr(time.time())]
    else:
        launcher = ["-m", "repro"]
    sample = _run_child(
        [sys.executable, *launcher, *arguments], cache_dir, work, program_seed
    )
    sample.stdout = (work / "stdout.txt").read_text(encoding="utf-8")
    if sample.exit_code != 0:
        tail = (work / "stderr.txt").read_text(encoding="utf-8")[-400:]
        sample.failures.append(f"exit code {sample.exit_code}: {tail.strip()}")
    try:
        blobs, sample.records = _read_records(cache_dir)
        sample.digest = digest(blobs)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        sample.failures.append(f"malformed result blob: {exc}")
    if "--out" in arguments:
        try:
            sample.out_bytes = out_path.read_bytes()
            json.loads(sample.out_bytes)
        except (OSError, ValueError) as exc:
            sample.failures.append(f"malformed --out file: {exc}")
    if prepared.stdout is not None and sample.stdout != prepared.stdout:
        sample.failures.append("stdout differs from the cold run's")
    return sample


def prepare(workload: Workload, first_seed: int, work: Path) -> Prepared:
    """The set-up ``workload`` needs before its first timed run."""
    if workload.prepare == "fill":
        cold = run_once(workload, first_seed, Prepared(), work)
        if cold.failures:
            raise RuntimeError(f"cache fill failed: {cold.failures}")
        return Prepared(cache_dir=work / "cache", stdout=cold.stdout)
    if workload.prepare == "reference":
        reference = run_once(FLEET_TRACE, first_seed, Prepared(), work)
        if reference.failures:
            raise RuntimeError(f"reference run failed: {reference.failures}")
        return Prepared(
            out_bytes=reference.out_bytes,
            reference_seed=first_seed,
            reference_wall_s=reference.wall_s,
        )
    work.mkdir(parents=True)
    listing = _run_child(
        [sys.executable, "-m", "repro", "--quiet", "list"], work, work
    )
    if listing.exit_code != 0:
        raise RuntimeError("python -m repro --quiet list failed")
    return Prepared()


def verify(
    workload: Workload,
    samples: list[Sample],
    prepared: Prepared,
    pins: dict[str, str] | None,
) -> list[str]:
    """Cross-run output checks; failures land on the offending samples.

    Each program seed's digest must equal its pin; ``pins`` is ``None``
    when the pins do not apply on this machine, and a seed may have no
    pin — then all runs of that seed in this invocation must agree
    instead, and the returned notices say so.  The pool run's summary
    must equal the ``--procs 1`` reference byte for byte.
    """
    notices = []
    by_seed = by_program_seed(samples)
    unpinned = []
    for seed, group in by_seed.items():
        expected = (pins or {}).get(str(seed))
        if expected is None:
            unpinned.append(seed)
            expected = group[0].digest
        for sample in group:
            if None not in (sample.digest, expected) and (
                sample.digest != expected
            ):
                sample.failures.append(
                    f"digest {sample.digest[:12]} != expected {expected[:12]} "
                    f"(program seed {seed})"
                )
    if unpinned:
        why = "no pin for" if pins is not None else "pins not applicable;"
        notices.append(
            f"{workload.name}: {why} program seed(s) "
            f"{', '.join(map(str, unpinned))} - checked that runs agree"
        )
    if prepared.out_bytes is not None:
        for sample in by_seed.get(prepared.reference_seed, ()):
            if sample.out_bytes != prepared.out_bytes:
                sample.failures.append(
                    "--out differs from the --procs 1 reference"
                )
    return notices
