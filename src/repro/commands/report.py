"""``sync-switch report`` — regenerate paper tables and figures."""

from __future__ import annotations

from repro.commands.common import LOG, add_jobs_argument
from repro.experiments import ARTIFACTS
from repro.experiments.reporting import prefetch_union, render_report
from repro.experiments.runner import ExperimentRunner


def configure(parser) -> None:
    parser.add_argument(
        "artifact", nargs="+", choices=sorted(ARTIFACTS) + ["all"]
    )
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--seeds", type=int, default=None)
    add_jobs_argument(parser)


def run(args) -> int:
    names = list(dict.fromkeys(args.artifact))
    if "all" in names:
        names = sorted(ARTIFACTS)
    runner = ExperimentRunner(scale=args.scale, seeds=args.seeds, jobs=args.jobs)
    if len(names) > 1:
        # Cross-artifact scheduling: one deduplicated union batch warms
        # the cache before any artifact renders.
        cells = prefetch_union(runner, [ARTIFACTS[name] for name in names])
        LOG.info(
            "prefetched %d unique cells across %d artifacts",
            cells,
            len(names),
        )
    for index, name in enumerate(names):
        if index:
            print()
        print(render_report(ARTIFACTS[name](runner)))
    return 0
