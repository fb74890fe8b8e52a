"""``sync-switch run`` — train one job under a policy."""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.experiments.runner import ExperimentRunner
from repro.experiments.setups import SETUPS


def configure(parser) -> None:
    parser.add_argument("--setup", type=int, default=1, choices=sorted(SETUPS))
    parser.add_argument(
        "--percent",
        type=float,
        default=None,
        help="BSP percentage before switching (default: the setup's policy)",
    )
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--online", choices=("greedy", "elastic"), default=None
    )


def run(args) -> int:
    setup = SETUPS[args.setup]
    percent = args.percent if args.percent is not None else setup.policy_percent
    if not 0.0 <= percent <= 100.0:
        raise ConfigurationError(
            f"--percent must be in [0, 100], got {percent:g}"
        )
    runner = ExperimentRunner(scale=args.scale, seeds=1)
    spec: dict = {"kind": "switch", "percent": percent}
    if args.online:
        spec["online"] = args.online
        spec["stragglers"] = {"n": 1, "occurrences": 1, "latency": 0.030}
        spec["ambient"] = False
    result = runner.run(setup, spec, args.seed)
    print(f"setup     : {setup.describe()}")
    print(f"plan      : {result.plan}")
    print(f"accuracy  : {result.reported_accuracy}")
    print(f"time      : {result.total_time:.1f} simulated seconds")
    print(f"throughput: {result.throughput:.0f} images/s")
    print(f"diverged  : {result.diverged}")
    return 0
