"""``sync-switch bench`` — hot-path steps/sec benchmark."""

from __future__ import annotations

from repro.commands.common import LOG
from repro.experiments.hotpath import (
    DEFAULT_TOLERANCE,
    check_regression,
    load_payload,
    render_hotpath_report,
    run_hotpath_bench,
    speedup_payload,
    write_payload,
)


def configure(parser) -> None:
    parser.add_argument(
        "--quick",
        action="store_true",
        help="~4x smaller step budgets (the CI perf-smoke mode)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="write the benchmark payload JSON here "
        "(with --record-speedup: the speedup artifact, default "
        "results/hotpath_speedup.json)",
    )
    parser.add_argument(
        "--check",
        default=None,
        metavar="BASELINE",
        help="compare machine-relative steps/sec against BASELINE "
        "(a payload or speedup artifact); exit 1 on regression",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional drop for --check "
        f"(default {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--record-speedup",
        default=None,
        metavar="BASELINE",
        help="combine a previously saved BASELINE payload with this run "
        "into the committed speedup artifact",
    )


def run(args) -> int:
    payload = run_hotpath_bench(quick=args.quick)
    print(render_hotpath_report(payload))
    if args.record_speedup:
        baseline = load_payload(args.record_speedup)
        artifact = speedup_payload(baseline, payload)
        target = write_payload(
            artifact, args.out or "results/hotpath_speedup.json"
        )
        LOG.info("\nspeedup artifact written to %s", target)
    elif args.out:
        target = write_payload(payload, args.out)
        LOG.info("\nbenchmark payload written to %s", target)
    if args.check:
        regressions = check_regression(
            payload, load_payload(args.check), args.tolerance
        )
        if regressions:
            LOG.error("\nPERF REGRESSION vs %s", args.check)
            for line in regressions:
                LOG.error("  %s", line)
            return 1
        LOG.info("\nperf check ok vs %s", args.check)
    return 0
