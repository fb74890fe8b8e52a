"""``sync-switch search`` — offline binary search for the switch timing."""

from __future__ import annotations

from repro.commands.common import LOG, add_jobs_argument, parse_protocols
from repro.core.search.binary_search import (
    TWO_PHASE,
    ScheduleSearch,
    SearchConfig,
)
from repro.errors import SearchError
from repro.experiments.runner import ExperimentRunner
from repro.experiments.setups import SETUPS


def configure(parser) -> None:
    parser.add_argument("--setup", type=int, default=1, choices=sorted(SETUPS))
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument("--beta", type=float, default=0.01)
    parser.add_argument(
        "--protocols",
        action="append",
        default=None,
        metavar="SEQ",
        help="comma-separated protocol schedule to search (e.g. "
        "bsp,ssp,asp); repeat the flag to enumerate candidate "
        "sequences (default: the two-phase bsp,asp switch search)",
    )
    add_jobs_argument(parser)


def run(args) -> int:
    setup = SETUPS[args.setup]

    def trial(
        protocols: tuple[str, ...], fractions: tuple[float, ...],
        run_index: int,
    ):
        if args.protocols:
            spec = {
                "kind": "schedule",
                "protocols": list(protocols),
                "fractions": [float(value) for value in fractions],
            }
        else:
            spec = {"kind": "switch", "percent": fractions[0] * 100.0}
        # Batch all of this setting's repetitions up front so --jobs
        # parallelises them; later run_index calls replay from cache.
        runner.prefetch([(setup, spec)], seeds=args.runs)
        result = runner.run(setup, spec, run_index)
        accuracy = 0.0 if result.diverged else (result.reported_accuracy or 0.0)
        return accuracy, result.total_time

    try:
        config = SearchConfig(
            beta=args.beta,
            max_settings=setup.search_max_settings,
            runs_per_setting=args.runs,
            bsp_runs=args.runs,
        )
        # After the config: it names a bad --runs in its own terms.
        runner = ExperimentRunner(
            scale=args.scale, seeds=args.runs, jobs=args.jobs
        )
        sequences = (
            tuple(parse_protocols(value) for value in args.protocols)
            if args.protocols
            else TWO_PHASE
        )
        outcome = ScheduleSearch(trial, config, sequences).search()
    except SearchError as exc:
        LOG.error("error: %s", exc)
        return 2
    print(f"setup            : {setup.describe()}")
    if args.protocols:
        fractions = ", ".join(f"{value:g}" for value in outcome.fractions)
        print(f"found schedule   : {outcome.describe()}")
        print(f"fractions        : {fractions}")
    else:
        print(f"found switch     : {outcome.switch_percent:g}%")
    print(f"target accuracy  : {outcome.target_accuracy:.4f}")
    print(f"sessions trained : {outcome.n_sessions}")
    print(f"search time      : {outcome.search_time:.0f} simulated seconds")
    if len(outcome.candidates) > 1:
        print("candidates:")
        for candidate in outcome.candidates:
            label = " -> ".join(name.upper() for name in candidate.protocols)
            parts = ", ".join(f"{v:g}" for v in candidate.fractions)
            print(
                f"  {label}: fractions {parts}, "
                f"expected {candidate.expected_time:.0f}s"
            )
    return 0
