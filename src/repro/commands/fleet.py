"""``sync-switch fleet`` — serve a multi-job stream on a shared pool.

One command, five modes: the scheduler x policy grid (default), the
sharded datacenter trace (a trace ``--scenario``), ``--tune``,
``--trace`` and ``--policy-store``.  :data:`CONFLICTS` refuses flag
combinations, :data:`DISPATCH` picks the mode, and every mode publishes
through :func:`repro.experiments.fleet.run_mode`.
"""

from __future__ import annotations

from pathlib import Path

from repro.commands.common import LOG, parse_protocols
from repro.distsim.cluster import WorkerTier
from repro.errors import ConfigurationError
from repro.experiments.fleet import (
    DEFAULT_FLEET_SCALE,
    DEFAULT_TUNING_SEEDS,
    MODES,
    FleetRunRequest,
    run_mode,
    run_traced_fleet,
)
from repro.experiments.reporting import render_report
from repro.experiments.setups import check_scale
from repro.fleet.fleet_sim import FleetSimulator, check_stream_schedule
from repro.fleet.policy_store import PolicyStore
from repro.fleet.scheduler import SCHEDULERS
from repro.fleet.workload import (
    FLEET_SCENARIOS,
    SYNC_POLICIES,
    TRACE_SCENARIOS,
    load_trace,
)
from repro.obs.export import (
    trace_categories,
    write_chrome_trace,
    write_metrics_dump,
)
from repro.obs.tracer import DETAIL_LEVELS


def configure(parser) -> None:
    parser.add_argument(
        "--scenario",
        default="rush",
        choices=sorted(FLEET_SCENARIOS) + sorted(TRACE_SCENARIOS),
        help="workload: a Poisson fleet scenario, or a datacenter trace "
        "scenario (diurnal arrivals, tenant tiers, sharded pool)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="number of training jobs in the stream (default: scenario)",
    )
    parser.add_argument(
        "--scheduler",
        default="all",
        choices=sorted(SCHEDULERS) + ["all"],
    )
    parser.add_argument(
        "--policy",
        default="all",
        choices=sorted(SYNC_POLICIES) + ["all"],
        help="synchronization policy of every job in the stream",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=DEFAULT_FLEET_SCALE)
    parser.add_argument(
        "--workload-trace",
        default=None,
        metavar="PATH",
        help="JSON trace of job arrivals (replaces the scenario stream)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a Chrome trace-event JSON of the run here (load it "
        "in Perfetto); runs one scheduler x policy stream, narrowing "
        "'all' defaults to fifo / sync-switch",
    )
    parser.add_argument(
        "--trace-detail",
        default="job",
        choices=DETAIL_LEVELS,
        help="span granularity for --trace: fleet-level only, + per-job "
        "lifecycle/segments (default), + per-update barriers/pushes",
    )
    parser.add_argument(
        "--metrics-interval",
        type=float,
        default=None,
        help="virtual-time seconds between metrics snapshots in the "
        "--trace metrics dump (default 60)",
    )
    parser.add_argument(
        "--procs",
        type=int,
        default=None,
        help="worker processes for the scenario grid (default: REPRO_JOBS)",
    )
    parser.add_argument("--out", default=None, help=_out_help())
    parser.add_argument(
        "--tune",
        action="store_true",
        help="amortized in-fleet timing search: compare an all-BSP stream "
        "against a tuned sync-switch stream (multi-seed, writes the "
        "tuning summary artifact)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=None,
        help="seeds per cell for the --tune confidence intervals "
        f"(default {DEFAULT_TUNING_SEEDS}; requires --tune)",
    )
    parser.add_argument(
        "--resim",
        default="exact",
        choices=("exact",),
        help="accepted for compatibility; the only timeline model is "
        "'exact' (a preempted ASP tail is re-simulated on the changed "
        "worker set)",
    )
    parser.add_argument(
        "--protocols",
        default=None,
        metavar="SEQ",
        help="comma-separated protocol schedule for sync-switch stream "
        "jobs (e.g. bsp,ssp,asp); with --tune the in-fleet search "
        "tunes its per-segment fractions, otherwise give --fractions",
    )
    parser.add_argument(
        "--fractions",
        default=None,
        metavar="FRACS",
        help="comma-separated per-segment step fractions aligned with "
        "--protocols (e.g. 0.4,0.3,0.3; must sum to 1)",
    )
    parser.add_argument(
        "--policy-store",
        default=None,
        metavar="PATH",
        help="persist the per-class policy store as JSON: load it (if "
        "present) to warm-start recurring classes, save it back after "
        "the run; runs a single stream, so requires one --scheduler "
        "and either --tune (tune that stream in place) or one --policy",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="independent pool shards for a trace scenario (default: "
        "the scenario's shard count); requires a trace --scenario",
    )
    parser.add_argument(
        "--tiers",
        default=None,
        metavar="SPEC",
        help="heterogeneous worker classes as comma-separated "
        "name:count:speed:bandwidth[:latency] entries (e.g. "
        "fast:32:1.0:1.0,slow:32:1.35:1.6), or 'none' for a uniform "
        "pool; default: trace scenarios get the built-in fast/slow "
        "split, Poisson scenarios stay uniform",
    )


def _parse_fractions(value: str) -> tuple[float, ...]:
    return tuple(float(part) for part in value.split(",") if part.strip())


def _parse_tiers(value: str) -> tuple[WorkerTier, ...]:
    """``--tiers`` spec: ``name:count:speed:bandwidth[:latency],...``.

    ``'none'`` forces a uniform pool (overriding a trace scenario's
    built-in fast/slow default).
    """
    if value.strip().lower() == "none":
        return ()
    tiers = []
    for part in value.split(","):
        fields = [field.strip() for field in part.strip().split(":")]
        if len(fields) not in (4, 5):
            raise ValueError(
                f"tier {part.strip()!r} must be "
                "name:count:speed:bandwidth[:latency]"
            )
        tiers.append(
            WorkerTier(
                name=fields[0],
                count=int(fields[1]),
                speed_factor=float(fields[2]),
                bandwidth_factor=float(fields[3]),
                extra_latency=float(fields[4]) if len(fields) == 5 else 0.0,
            )
        )
    return tuple(tiers)


def _sharded_trace(args) -> bool:
    """Whether the run is the sharded trace-scenario mode."""
    return args.workload_trace is None and args.scenario in TRACE_SCENARIOS


def _in_process_only(flag: str, given) -> tuple:
    """The row refusing single-stream ``flag`` in the sharded trace mode."""
    return (
        f"sharded-trace-with{flag[1:]}",
        lambda a: _sharded_trace(a) and given(a),
        f"error: {flag} runs a single in-process stream and cannot be "
        "combined with the sharded trace scenario {args.scenario!r}",
    )


#: Every refused flag combination as ``(name, predicate over the parsed
#: args, error line)``, checked in order before dispatch: the first row
#: that trips is the one reported (exit 2).  Rows of a mode
#: (``--policy-store``, ``--tune``) rely on the rows above them having
#: let the mode through.  Messages are ``str.format`` templates over
#: ``args`` and ``traces`` (the trace scenario names).
CONFLICTS: tuple[tuple, ...] = (
    (
        "jobs-with-workload-trace",
        lambda a: a.workload_trace and a.jobs is not None,
        "error: --jobs sets the generated stream length and cannot be "
        "combined with --workload-trace (the trace fixes the stream)",
    ),
    (
        "seeds-without-tune",
        lambda a: a.seeds is not None and not a.tune,
        "error: --seeds controls the --tune confidence intervals; "
        "without --tune the fleet grid runs the single --seed stream",
    ),
    (
        "metrics-interval-without-trace",
        lambda a: a.metrics_interval is not None and not a.trace,
        "error: --metrics-interval tunes the --trace metrics dump; "
        "give --trace PATH to enable tracing",
    ),
    (
        "trace-with-tune",
        lambda a: a.trace and a.tune and not a.policy_store,
        "error: --trace records one stream and cannot be combined "
        "with --tune (a multi-cell comparison grid)",
    ),
    (
        "fractions-without-protocols",
        lambda a: a.fractions and not a.protocols,
        "error: --fractions needs --protocols to name the schedule "
        "segments",
    ),
    (
        "protocols-without-fractions",
        lambda a: a.protocols and not a.fractions and not a.tune,
        "error: --protocols without --tune needs --fractions (with "
        "--tune the in-fleet search finds the fractions)",
    ),
    (
        "fractions-with-tune",
        lambda a: a.fractions and a.tune,
        "error: --fractions fixes the schedule and cannot be "
        "combined with --tune (which searches for it)",
    ),
    (
        "tiers-with-single-stream",
        lambda a: a.tiers is not None
        and (a.tune or a.trace or a.policy_store),
        "error: --tiers applies to the fleet grid and the trace "
        "scenarios; it does not combine with --tune, --trace or "
        "--policy-store",
    ),
    (
        "shards-without-trace-scenario",
        lambda a: a.shards is not None and not _sharded_trace(a),
        "error: --shards partitions a trace scenario's pool; pick a "
        "trace --scenario ({traces})",
    ),
    _in_process_only("--tune", lambda a: a.tune),
    _in_process_only("--trace", lambda a: a.trace is not None),
    _in_process_only("--policy-store", lambda a: a.policy_store is not None),
    _in_process_only("--protocols", lambda a: a.protocols),
    (
        "policy-store-needs-scheduler",
        lambda a: a.policy_store and a.scheduler == "all",
        "error: --policy-store runs a single stream; pick one "
        "--scheduler",
    ),
    (
        "policy-store-tune-policy",
        lambda a: a.policy_store
        and a.tune
        and a.policy not in ("all", "sync-switch"),
        "error: --policy-store --tune searches sync-switch "
        "streams; --policy {args.policy} does not combine",
    ),
    (
        "policy-store-needs-policy",
        lambda a: a.policy_store and not a.tune and a.policy == "all",
        "error: --policy-store without --tune needs one --policy "
        "for the stream",
    ),
    (
        "policy-store-with-seeds",
        lambda a: a.policy_store and a.seeds is not None,
        "error: --seeds controls the --tune comparison grid and "
        "does not combine with --policy-store (use --seed)",
    ),
    (
        "tune-with-policy",
        lambda a: a.tune and not a.policy_store and a.policy != "all",
        "error: --policy cannot be combined with --tune (the tuning "
        "grid always compares bsp vs tuned sync-switch)",
    ),
    (
        "tune-with-seed",
        lambda a: a.tune and not a.policy_store and a.seed != 0,
        "error: --seed cannot be combined with --tune; the tuning "
        "grid always runs seeds 0..N-1 (choose N with --seeds)",
    ),
    (
        "tune-seeds-below-one",
        lambda a: a.tune
        and not a.policy_store
        and a.seeds is not None
        and a.seeds < 1,
        "error: --seeds must be >= 1",
    ),
    (
        "procs-below-one",
        lambda a: a.procs is not None and a.procs < 1,
        "error: --procs must be >= 1",
    ),
)


def run(args) -> int:
    for _name, trips, message in CONFLICTS:
        if trips(args):
            traces = ", ".join(sorted(TRACE_SCENARIOS))
            LOG.error("%s", message.format(args=args, traces=traces))
            return 2
    check_scale(args.scale)
    protocols = parse_protocols(args.protocols) if args.protocols else None
    try:
        fractions = (
            _parse_fractions(args.fractions) if args.fractions else None
        )
    except ValueError:
        LOG.error(
            "error: --fractions must be comma-separated numbers "
            "(e.g. 0.4,0.3,0.3)"
        )
        return 2
    if protocols:
        # The stream's own rules, once, before any cell is dispatched.
        check_stream_schedule(protocols, fractions)
    tiers = None
    if args.tiers is not None:
        try:
            tiers = _parse_tiers(args.tiers)
        except (ValueError, ConfigurationError) as exc:
            LOG.error("error: bad --tiers: %s", exc)
            return 2
    trace = load_trace(args.workload_trace) if args.workload_trace else None
    # A trace replaces the scenario stream entirely; label the run (and
    # its cache keys) accordingly instead of with the unused scenario.
    stream = {
        "scenario": "trace" if trace is not None else args.scenario,
        "seed": args.seed,
        "n_jobs": args.jobs,
        "trace": trace,
        "protocols": protocols,
        "fractions": fractions,
    }
    _, _, mode, handler = next(row for row in DISPATCH if row[1](args))
    return handler(args, mode, stream, tiers)


def _publish(args, mode: str, extra=None, **cells) -> int:
    """Run ``mode`` (or publish the ``result`` a handler holds) through
    :func:`~repro.experiments.fleet.run_mode`: print the report, write
    ``--out``.  ``extra`` writes a mode's further outputs in between."""
    _, report, target = run_mode(
        MODES[mode], out=args.out, jobs=args.procs, scale=args.scale, **cells
    )
    print(render_report(report))
    if extra is not None:
        extra()
    # A blank line parts the log line from the table unless extra
    # output already stands between them.
    LOG.info(
        "%s%s written to %s", "" if extra else "\n", MODES[mode].noun, target
    )
    return 0


def _run_grid(args, mode: str, stream: dict, tiers) -> int:
    """The default: a scheduler x sync-policy grid of cached cells."""
    # fleet_grid reads None as every scheduler / every policy.
    return _publish(
        args,
        mode,
        schedulers=None if args.scheduler == "all" else (args.scheduler,),
        policies=None if args.policy == "all" else (args.policy,),
        tiers=tiers,
        **stream,
    )


def _run_sharded(args, mode: str, stream: dict, tiers) -> int:
    """A trace ``--scenario``: the datacenter trace, generated once, is
    served shard by shard as cached cells and merged — bit-identical at
    any ``--procs`` count."""
    scheduler, policy = _single_cell(args, "slo", "trace scenario")
    return _publish(
        args,
        mode,
        scenario=args.scenario,
        scheduler=scheduler,
        sync_policy=policy,
        seed=args.seed,
        n_jobs=args.jobs,
        shards=args.shards,
        tiers=tiers,
    )


def _run_tune(args, mode: str, stream: dict, tiers) -> int:
    """``--tune``: the amortized search comparison grid.

    Always compares the all-BSP baseline stream against the tuned
    Sync-Switch stream (that pair *is* the amortization argument), so
    ``--policy`` does not combine with it.
    """
    scheduler, _ = _single_cell(args, "fifo")
    return _publish(
        args,
        mode,
        scenarios=(stream["scenario"],),
        seeds=args.seeds if args.seeds is not None else DEFAULT_TUNING_SEEDS,
        scheduler=scheduler,
        n_jobs=args.jobs,
        trace=stream["trace"],
        protocols=stream["protocols"],
    )


def _run_traced(args, mode: str, stream: dict, tiers) -> int:
    """``--trace``: one observed stream as a cached traced cell — its
    summary is bit-identical to the untraced cell's — plus the
    Perfetto-loadable Chrome trace and the metrics dump."""
    # Tracing the full grid would interleave unrelated runs in one
    # timeline, so 'all' narrows to the canonical traced cell.
    scheduler, policy = _single_cell(args, "fifo", "--trace")
    run = run_traced_fleet(
        scheduler=scheduler,
        sync_policy=policy,
        scale=args.scale,
        trace_detail=args.trace_detail,
        metrics_interval=args.metrics_interval,
        jobs=args.procs,
        **stream,
    )
    return _publish(
        args,
        mode,
        result={(scheduler, policy): run.summary},
        extra=lambda: _write_trace_outputs(args, run.events, run.metrics),
        **stream,
    )


def _single_cell(args, default: str, note: str | None = None) -> tuple[str, str]:
    """The one (scheduler, policy) cell a single-stream mode serves.

    Explicit picks are kept; 'all' narrows to the mode's ``default``
    scheduler and to sync-switch, each reported at INFO as "``note``
    narrows ..." when the mode gives a ``note``.
    """
    if args.scheduler == "all":
        scheduler = default
        if note:
            LOG.info("%s narrows --scheduler all to %s", note, default)
    else:
        scheduler = args.scheduler
    if args.policy == "all":
        policy = "sync-switch"
        if note:
            LOG.info("%s narrows --policy all to sync-switch", note)
    else:
        policy = args.policy
    return scheduler, policy


def _write_trace_outputs(args, events: list, metrics: dict | None) -> None:
    """Write the Chrome trace (and its sibling metrics dump)."""
    trace_path = Path(args.trace)
    write_chrome_trace(events, trace_path)
    categories = trace_categories(events)
    LOG.info(
        "trace written to %s (%d events, %d categories: %s)",
        trace_path,
        len(events),
        len(categories),
        ", ".join(sorted(categories)),
    )
    if metrics is not None:
        metrics_path = trace_path.with_name(trace_path.stem + ".metrics.json")
        write_metrics_dump(metrics, metrics_path)
        LOG.info("metrics dump written to %s", metrics_path)


def _run_store(args, mode: str, stream: dict, tiers) -> int:
    """``--policy-store``: one warm-startable stream.

    Loads the persisted :class:`~repro.fleet.PolicyStore` (when the
    file exists), serves a *single* stream against it — with ``--tune``
    the stream searches un-tuned classes in place, without it the
    stream simply reuses whatever the store already knows (the paper's
    ``(Yes, 0, r)`` recurrence setting) — and saves the updated store
    back.  Warm-started runs depend on the store's state, so this path
    bypasses the experiment cache and always simulates.
    """
    # CONFLICTS refused --scheduler all here (the default is never
    # taken) and left a policy that is explicit or, with --tune,
    # narrows to sync-switch.
    scheduler, policy = _single_cell(args, "fifo")
    store_path = Path(args.policy_store)
    if store_path.exists():
        store = PolicyStore.load(store_path, scale=args.scale)
    else:
        store = PolicyStore()
    warm_classes = len(store.report())
    request = FleetRunRequest(
        scheduler=scheduler,
        sync_policy=policy,
        tune=args.tune,
        trace_detail=args.trace_detail if args.trace else None,
        metrics_interval=args.metrics_interval,
        **stream,
    )
    simulator = FleetSimulator(request.config(args.scale), store=store)
    summary = simulator.run()

    def persist() -> None:
        print(
            f"\npolicy store: {warm_classes} warm class(es) loaded, "
            f"{len(store.report())} persisted"
        )
        for row in store.report():
            realized = row["realized_service_mean_s"]
            print(
                f"  {row['job_class']}: {row['percent']:g}% BSP, "
                f"{row['recurrences']} recurrence(s), "
                f"realized savings {row['realized_savings_s']:.1f}s"
                + (
                    f", realized service {realized:.1f}s"
                    if realized is not None
                    else ""
                )
            )
        target = store.save(store_path, scale=args.scale)
        LOG.info("policy store written to %s", target)
        if args.trace:
            _write_trace_outputs(
                args, list(simulator.tracer.events), simulator.metrics_payload
            )

    return _publish(
        args,
        mode,
        result={(scheduler, policy): summary},
        extra=persist,
        **stream,
    )


#: The modes ``run`` dispatches to, first match wins, as ``(when — for
#: the --out help, selects, the MODES entry it publishes, handler)``.
#: Every handler but ``--policy-store`` (whose warm-started stream
#: depends on the store, so is never cached) runs cached cells.
DISPATCH: tuple[tuple, ...] = (
    (" for a trace --scenario", _sharded_trace, "trace-scale", _run_sharded),
    (" with --policy-store", lambda a: a.policy_store, "grid", _run_store),
    (" with --tune", lambda a: a.tune, "tuning", _run_tune),
    (" with --trace", lambda a: a.trace, "grid", _run_traced),
    ("", lambda a: True, "grid", _run_grid),
)


def _out_help() -> str:
    """``--out``'s help text: each mode's default artifact path."""
    defaults: dict[str, str] = {}
    for when, _, mode, _ in reversed(DISPATCH):
        defaults.setdefault(MODES[mode].artifact, when)
    return "summary artifact path (default: " + ", or ".join(
        f"results/{name}{when}" for name, when in defaults.items()
    ) + ")"
