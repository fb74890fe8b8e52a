"""The layered perf ledger: one command for every metric.

Run protocol (what ``BENCHMARK.json`` names)::

    python3 benchmarks/ledger/run.py --workload NAME --seed N \
        --seconds S --trace 0|1

measures one workload once and prints the result object as the last
line of stdout: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separate traced run with ``--trace 1``.

Without ``--workload`` it is the ledger a person reads::

    python benchmarks/ledger/run.py [--seed 0] [--rounds 5] [--layers]
        [--aa] [--out PATH]

runs every workload ``--rounds`` times, interleaved round-robin so
machine drift spreads evenly, and prints every metric by name with its
unit, median, quartiles and sample count.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))  # the `ledger` package
sys.path.insert(0, str(HERE.parents[1] / "src"))  # `repro`, for --trace 1

from ledger.metrics import END_TO_END, PER_LAYER, RUN_SECONDS, spread  # noqa: E402
from ledger.workloads import (  # noqa: E402
    PINNED_THREADS,
    PROCS,
    ROOT,
    WORKLOADS,
    Prepared,
    program_seeds,
    run_once,
    scratch,
)

MIN_ROUNDS = 3
AA_OBSERVED = HERE / "aa_observed.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [workload.name for workload in WORKLOADS]
    parser.add_argument("--workload", choices=names, default=None,
                        help="measure this workload once (run protocol); "
                        "default: the whole ledger")
    parser.add_argument("--seed", type=int, default=0,
                        help="benchmark seed: selects the fleet workloads' "
                        "program seeds (default 0, the pinned one)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = the traced run")
    parser.add_argument("--rounds", type=int, default=5,
                        help=f"ledger: runs per workload (at least {MIN_ROUNDS})")
    parser.add_argument("--layers", action="store_true",
                        help="ledger: add one traced run per workload and "
                        "print the per-layer table")
    parser.add_argument("--aa", action="store_true",
                        help="ledger: two sets of the same code back to back, "
                        "compared against the bounds; exit 1 on a regression")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="ledger: write every run's result and the "
                        "environment record here as JSON")
    parser.add_argument("--repin", action="store_true",
                        help="regenerate expected.json (refuses while src/ "
                        "has uncommitted changes)")
    return parser


def scrub_environment() -> bool:
    """Pin BLAS and drop every ``REPRO_*`` variable for this process and
    its children; returns whether ``REPRO_GOLDEN_SKIP`` was set."""
    golden_skip = os.environ.get("REPRO_GOLDEN_SKIP", "") not in ("", "0")
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(PINNED_THREADS)
    return golden_skip


def environment_record() -> dict:
    """Where and on what the numbers were taken."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    from ledger.micro import calibration_row

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "procs": PROCS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "platform": platform.platform(),
        "environment": {**PINNED_THREADS, "REPRO_*": "scrubbed",
                        "REPRO_CACHE_DIR": "fresh per run",
                        "PYTHONPATH": "src"},
        "git_commit": commit.stdout.strip() if commit.returncode == 0 else "unknown",
        **calibration_row(),
    }


def run_unit(workload, seed: int, seconds: float, traced: bool, root, pins):
    """One run of one workload in a scratch directory of its own."""
    from ledger.units import measure, trace

    with tempfile.TemporaryDirectory(dir=root) as work:
        if traced:
            return trace(workload, seed, Path(work), pins)
        return measure(workload, seed, seconds, Path(work), pins)


# ----------------------------------------------------------------------
# run protocol: one workload, one result line
# ----------------------------------------------------------------------


def protocol_run(args, pins, notices: list[str]) -> int:
    workload = next(w for w in WORKLOADS if w.name == args.workload)
    if workload.prepare == "reference" and PROCS < 2:
        notices.append(
            f"{workload.name}: one core, ran at --procs 1 (pool not exercised)"
        )
    result, more = run_unit(
        workload, args.seed, args.seconds, bool(args.trace), scratch(), pins
    )
    for notice in notices + more:
        print(f"# {notice}")
    result.pop("wall_samples", None)
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# the ledger: every workload, several rounds, tables
# ----------------------------------------------------------------------


def run_set(args, pins, root, label: str) -> dict:
    """``--rounds`` runs of every workload, interleaved round-robin."""
    results = {workload.name: [] for workload in active_workloads()}
    for round_index in range(max(args.rounds, MIN_ROUNDS)):
        for workload in active_workloads():
            result, notices = run_unit(
                workload, args.seed, args.seconds, False, root, pins
            )
            results[workload.name].append(result)
            print(
                f"[{label} round {round_index + 1}] {workload.name}: "
                f"wall_s {result['metrics']['wall_s']['value']:.3f} "
                f"failed {result['failed']}/{result['attempted']}",
                flush=True,
            )
            for notice in notices:
                print(f"# {notice}")
    return results


def active_workloads():
    """Every workload this machine can run as specified."""
    return [w for w in WORKLOADS if not (w.prepare == "reference" and PROCS < 2)]


def metric_values(results: list[dict], name: str) -> list[float]:
    return [result["metrics"][name]["value"] for result in results]


def print_end_to_end(results: dict) -> None:
    print("\n== end-to-end (median [q1, q3] n) ==")
    for name, runs in results.items():
        print(f"\n{name}")
        for metric in END_TO_END:
            values = metric_values(runs, metric.name)
            first, median, third = statistics.quantiles(values, n=4)
            print(
                f"  {metric.name:16s} {median:12.4f} {metric.unit:9s} "
                f"[{first:.4f}, {third:.4f}] n={len(values)} "
                f"spread {spread(values):.3f} bound {metric.bound:g} "
                f"({metric.better} is better)"
            )
        attempted = sum(run["attempted"] for run in runs)
        failed = sum(run["failed"] for run in runs)
        print(
            f"  {'failed_share':16s} {failed / attempted:12.4f} "
            f"{'fraction':9s} ({failed} of {attempted} result records)"
        )
        walls = sorted(wall for run in runs for wall in run["wall_samples"])
        beyond = len(walls) // 10
        if beyond >= 10:  # a p90 needs ten samples beyond it
            print(
                f"  {'wall_s p90':16s} {walls[-beyond - 1]:12.4f} s         "
                f"over {len(walls)} child runs"
            )
    for workload in WORKLOADS:
        if workload.name not in results:
            print(f"\n{workload.name}\n  skipped: needs 2 cores for --procs 2")


def print_layers(layer_results: dict) -> None:
    print("\n== per-layer (one traced run per workload) ==")
    names = list(layer_results)
    print(f"{'metric':52s} {'unit':9s} " + " ".join(f"{n:>17s}" for n in names))
    for metric in PER_LAYER:
        cells = " ".join(
            f"{layer_results[n]['metrics'][metric.name]['value']:17.5g}"
            for n in names
        )
        print(f"{metric.name:52s} {metric.unit:9s} {cells}")


def compare_sets(first: dict, second: dict) -> tuple[list[dict], bool]:
    """A/A: per metric x workload, both medians against the bound."""
    rows = []
    regressed = False
    for name in first:
        for metric in END_TO_END:
            a = metric_values(first[name], metric.name)
            b = metric_values(second[name], metric.name)
            median_a, median_b = statistics.median(a), statistics.median(b)
            change = (median_b - median_a) / abs(median_a)
            worse = change if metric.better == "lower" else -change
            sign = 1 if metric.better == "lower" else -1
            b_always_better = max(sign * v for v in b) < min(sign * v for v in a)
            noisy = max(spread(a), spread(b)) > metric.bound
            if noisy and not b_always_better:
                verdict = "unresolved"
            elif worse > metric.bound:
                verdict = "regressed"
                regressed = True
            else:
                verdict = "ok"
            rows.append(
                {"workload": name, "metric": metric.name, "median_a": median_a,
                 "median_b": median_b, "relative_difference": change,
                 "spread_a": spread(a), "spread_b": spread(b),
                 "bound": metric.bound, "verdict": verdict}
            )
    return rows, regressed


def ledger(args, pins, notices: list[str]) -> int:
    for notice in notices:
        print(f"# {notice}")
    record = {"environment": environment_record(), "seed": args.seed,
              "seconds": args.seconds}
    print(json.dumps(record["environment"], indent=2))
    status = 0
    with tempfile.TemporaryDirectory(dir=scratch()) as root:
        record["runs"] = run_set(args, pins, root, "A")
        print_end_to_end(record["runs"])
        if args.aa:
            record["runs_b"] = run_set(args, pins, root, "B")
            rows, regressed = compare_sets(record["runs"], record["runs_b"])
            print("\n== A/A: two sets of the same code ==")
            for row in rows:
                print(
                    f"{row['workload']:18s} {row['metric']:16s} "
                    f"A {row['median_a']:11.4f} B {row['median_b']:11.4f} "
                    f"diff {row['relative_difference']:+.3f} "
                    f"spread {row['spread_a']:.3f}/{row['spread_b']:.3f} "
                    f"bound {row['bound']:g} {row['verdict']}"
                )
            AA_OBSERVED.write_text(json.dumps(rows, indent=1) + "\n")
            print(f"A/A spreads written to {AA_OBSERVED.relative_to(ROOT)}")
            record["aa"] = rows
            status = 1 if regressed else 0
        if args.layers:
            record["layers"] = {}
            for workload in active_workloads():
                result, more = run_unit(
                    workload, args.seed, args.seconds, True, root, pins
                )
                record["layers"][workload.name] = result
                for notice in more:
                    print(f"# {notice}")
            print_layers(record["layers"])
    failed = sum(
        run["failed"]
        for key in ("runs", "runs_b")
        for runs in record.get(key, {}).values()
        for run in runs
    ) + sum(run["failed"] for run in record.get("layers", {}).values())
    if failed:
        print(f"\nFAILED: {failed} result record(s) failed their output checks")
        status = 1
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
        print(f"results written to {args.out}")
    return status


# ----------------------------------------------------------------------
# --repin
# ----------------------------------------------------------------------


def repin() -> int:
    """Regenerate ``expected.json`` from this tree, on this machine."""
    from ledger.units import EXPECTED, float_fingerprint

    status = subprocess.run(
        ["git", "status", "--porcelain", "--", "src"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if status.returncode != 0 or status.stdout.strip():
        print(
            "refusing to repin: src/ has uncommitted changes (or this is not "
            "a git checkout); pins must describe a committed program\n"
            + status.stdout
        )
        return 2
    digests: dict[str, dict[str, str]] = {}
    with tempfile.TemporaryDirectory(dir=scratch()) as root:
        for workload in WORKLOADS:
            if workload.prepare != "interpreter":
                continue  # warm and pool runs share the digests pinned here
            group = digests.setdefault(workload.pin, {})
            for seed in program_seeds(workload, 0):
                sample = run_once(
                    workload, seed, Prepared(), Path(root) / f"{workload.pin}{seed}"
                )
                if sample.failures:
                    print(f"{workload.name} seed {seed}: {sample.failures}")
                    return 1
                group[str(seed)] = sample.digest
                print(f"{workload.pin} seed {seed}: {sample.digest}")
    EXPECTED.write_text(
        json.dumps(
            {"float_fingerprint": float_fingerprint(), "digests": digests},
            indent=1,
        )
        + "\n"
    )
    print(f"pins written to {EXPECTED.relative_to(ROOT)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} missing",
              file=sys.stderr)
        return 2
    golden_skip = scrub_environment()
    if args.repin:
        return repin()
    from ledger.units import load_pins

    pins, notices = load_pins(golden_skip)
    if args.workload:
        return protocol_run(args, pins, notices)
    return ledger(args, pins, notices)


if __name__ == "__main__":
    sys.exit(main())
