"""Tests for the sync-switch CLI."""

import logging

import pytest

from repro.cli import build_parser, main


def test_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["run", "--setup", "1", "--percent", "6.25"])
    assert args.command == "run"
    assert args.percent == 6.25
    args = parser.parse_args(["report", "tab3"])
    assert args.artifact == ["tab3"]
    args = parser.parse_args(["search", "--setup", "2"])
    assert args.setup == 2


def test_retired_bench_command_is_a_usage_error(capsys):
    """The perf ledger (BENCHMARK.json) is the only perf harness."""
    with pytest.raises(SystemExit) as exit_info:
        main(["bench"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    help_text = capsys.readouterr().out
    assert "bench" not in help_text
    assert "{run,search,report,fleet,lint,list}" in help_text


def test_parser_report_multiple_artifacts():
    parser = build_parser()
    args = parser.parse_args(["report", "fig2", "fig5b"])
    assert args.artifact == ["fig2", "fig5b"]
    assert parser.parse_args(["report", "all"]).artifact == ["all"]


def test_parser_fleet_subcommand():
    parser = build_parser()
    args = parser.parse_args(
        ["fleet", "--scenario", "rush", "--jobs", "4", "--scheduler", "fifo",
         "--policy", "sync-switch", "--seed", "3", "--procs", "2"]
    )
    assert args.command == "fleet"
    assert args.scenario == "rush"
    assert args.jobs == 4  # number of training jobs in the stream
    assert args.scheduler == "fifo"
    assert args.policy == "sync-switch"
    assert args.procs == 2
    defaults = parser.parse_args(["fleet"])
    assert defaults.scheduler == "all"
    assert defaults.policy == "all"
    with pytest.raises(SystemExit):
        parser.parse_args(["fleet", "--scenario", "nope"])


def test_parser_jobs_option():
    parser = build_parser()
    for argv in (
        ["search", "--jobs", "4"],
        ["report", "fig2", "--jobs", "4"],
    ):
        assert parser.parse_args(argv).jobs == 4
    assert parser.parse_args(["search"]).jobs is None
    # single-cell `run` deliberately has no --jobs knob
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--jobs", "4"])


def test_report_command_with_jobs(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["report", "tab3", "--scale", "0.008", "--seeds", "1",
                 "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "Table III" in out


def test_parser_rejects_unknown_artifact():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["report", "fig99"])


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "exp1" in out
    assert "fig11" in out


def test_records_after_an_in_process_main_reach_caplog(capsys, caplog):
    """main() hands the ``repro`` logger back as it found it: a record
    logged afterwards propagates and is not written to the stream
    main() bound (which pytest may have closed by then)."""
    logger = logging.getLogger("repro")
    before = (logger.handlers[:], logger.level, logger.propagate)
    assert main(["list"]) == 0
    assert (logger.handlers, logger.level, logger.propagate) == before
    capsys.readouterr()
    caplog.set_level(logging.INFO, logger="repro.experiments.executor")
    logging.getLogger("repro.experiments.executor").info("after main")
    assert [record.getMessage() for record in caplog.records] == ["after main"]
    assert capsys.readouterr() == ("", "")


def test_run_command_tiny(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["run", "--setup", "1", "--scale", "0.008", "--percent",
                 "50"]) == 0
    out = capsys.readouterr().out
    assert "accuracy" in out
    assert "throughput" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["--percent", "100", "--online", "greedy"],
        ["--percent", "0", "--online", "elastic"],
    ],
    ids=["greedy-all-bsp", "elastic-all-asp"],
)
def test_run_online_policy_without_switch_is_a_usage_error(
    argv, capsys, tmp_path, monkeypatch
):
    """An online policy acts in the barrier phase before the switch; a
    plan with no such phase must not silently train without it."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["--quiet", "run", "--setup", "1", "--scale", "0.004",
                 *argv]) == 2
    _assert_one_error_line(
        capsys, "needs a barrier phase followed by an asynchronous one"
    )
    assert list(tmp_path.iterdir()) == []


def test_search_command_tiny(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["search", "--setup", "3", "--scale", "0.008", "--runs",
                 "1"]) == 0
    out = capsys.readouterr().out
    assert "found switch" in out


def test_report_command_tab3(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["report", "tab3", "--scale", "0.008", "--seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert "Table III" in out


def test_report_command_multiple_prefetches_union(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["report", "fig2", "fig5b", "--scale", "0.008",
                 "--seeds", "1"]) == 0
    out = capsys.readouterr().out
    # fig2's grid {0, 25, 50, 100} is a subset of fig5b's sweep: the
    # union batch is the 7-percent sweep, deduplicated.
    assert "prefetched 7 unique cells across 2 artifacts" in out
    assert "Figure 2" in out
    assert "Figure 5(b)" in out


def test_fleet_command_tiny(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    out_path = tmp_path / "fleet_summary.json"
    assert main(["fleet", "--scenario", "surge", "--jobs", "2",
                 "--scheduler", "fifo", "--policy", "sync-switch",
                 "--scale", "0.008", "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "Fleet (surge)" in out
    assert "mean_jct_s" in out
    assert out_path.exists()


def test_parser_fleet_tune_and_slo_flags():
    parser = build_parser()
    args = parser.parse_args(
        ["fleet", "--tune", "--seeds", "2", "--scheduler", "slo"]
    )
    assert args.tune and args.scheduler == "slo"
    assert args.seeds == 2
    defaults = parser.parse_args(["fleet"])
    assert not defaults.tune and defaults.scheduler == "all"
    assert defaults.seeds is None
    with pytest.raises(SystemExit):
        parser.parse_args(["fleet", "--slo"])


def test_fleet_seeds_requires_tune(capsys):
    assert main(["fleet", "--seeds", "2"]) == 2
    assert "--seeds" in capsys.readouterr().err


def test_fleet_tune_rejects_policy(capsys):
    assert main(["fleet", "--tune", "--policy", "bsp"]) == 2
    assert "--policy" in capsys.readouterr().err


def test_fleet_tune_rejects_seed(capsys):
    # The tuning grid always runs seeds 0..N-1; a silently ignored
    # --seed would suggest a varied stream that never ran.
    assert main(["fleet", "--tune", "--seed", "7"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_fleet_tune_command_tiny(capsys, tmp_path, monkeypatch):
    # Setup 3 searches with exactly two trial jobs (max_settings=1),
    # keeping the end-to-end --tune path cheap.
    import json

    from repro.fleet import JobRequest, save_trace

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    trace_path = tmp_path / "trace.json"
    save_trace(
        trace_path,
        (
            JobRequest(job_id=0, arrival=0.0, setup_index=3, n_workers=16),
            JobRequest(
                job_id=1, arrival=5000.0, setup_index=3, n_workers=16
            ),
        ),
    )
    out_path = tmp_path / "fleet_tuning_summary.json"
    assert main(["fleet", "--workload-trace", str(trace_path), "--tune",
                 "--seeds", "1", "--scheduler", "fifo",
                 "--scale", "0.008", "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "Fleet search" in out
    assert "tuned" in out
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    assert set(payload["scenarios"]) == {"trace"}
    assert payload["scenarios"]["trace"]["tuned"]["classes"]


def test_fleet_slo_command_tiny(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    out_path = tmp_path / "fleet_summary.json"
    assert main(["fleet", "--scenario", "deadline", "--jobs", "2",
                 "--scheduler", "slo", "--policy", "sync-switch",
                 "--scale", "0.008",
                 "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "slo" in out
    assert "slo_attained" in out


def test_parser_resim_and_policy_store_flags(capsys):
    parser = build_parser()
    args = parser.parse_args(
        ["fleet", "--resim", "exact", "--policy-store", "store.json"]
    )
    assert args.policy_store == "store.json"
    assert parser.parse_args(["fleet"]).policy_store is None
    # The flag survives for old command lines; the removed model and
    # unknown ones are usage errors.
    for removed in ("stretch", "approximate"):
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args(["fleet", "--resim", removed])
        assert exit_info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def _assert_one_error_line(capsys, message):
    err = capsys.readouterr().err
    assert message in err
    assert err.count("error:") == 1 and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--scenario", "surge", "--scale", "5"], "scale must be in (0, 1]"),
        (["--jobs", "0"], "n_jobs must be positive"),
        (["--procs", "0"], "--procs must be >= 1"),
        (["--tiers", "fast:3:1.0:1.0"], "tier counts sum to 3"),
        (
            # the whole pool's numbers, not one of its 4 shards'
            ["--scenario", "trace", "--jobs", "4", "--tiers", "fast:32:1:1"],
            "tier counts sum to 32, pool has 64 workers",
        ),
        (
            ["--scenario", "trace", "--shards", "3"],
            "pool size 64 not divisible into 3 shards",
        ),
    ],
    ids=["scale", "jobs", "procs", "tiers", "trace-tiers", "shards"],
)
def test_fleet_bad_flag_value_is_a_usage_error(
    argv, message, capsys, tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    out = tmp_path / "summary.json"
    assert main(["--quiet", "fleet", *argv, "--out", str(out)]) == 2
    _assert_one_error_line(capsys, message)
    assert not out.exists()


def test_retired_validate_flag_is_a_usage_error(capsys):
    """The invariant checker runs in every fleet simulation: there is
    nothing left to switch on."""
    with pytest.raises(SystemExit) as exit_info:
        main(["fleet", "--validate"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --validate" in capsys.readouterr().err


FLEET = ["fleet", "--jobs", "2", "--procs", "2"]
TRACED = ["fleet", "--scheduler", "fifo", "--policy", "sync-switch",
          "--trace", "trace.json"]
INTERVAL = "metrics_interval must be finite and positive"
PERCENT = "--percent must be in [0, 100]"
SCALE = "scale must be in (0, 1]"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["report", "fig5b", "--scale", "0"], f"{SCALE}, got 0"),
        (["search", "--scale", "2"], f"{SCALE}, got 2"),
        (["run", "--scale", "0"], f"{SCALE}, got 0"),
        ([*FLEET, "--scale", "2"], f"{SCALE}, got 2"),
        (
            [*FLEET, "--protocols", "asp,bsp", "--fractions", "0.5,0.5"],
            "schedule asp -> bsp must move from more to less precise",
        ),
        (
            [*FLEET, "--protocols", "bsp,asp", "--fractions", "0.5,nan"],
            "schedule fractions must be in [0, 1]",
        ),
        (
            [*FLEET, "--protocols", "bsp,ssp,asp", "--fractions", "0.5,0.5"],
            "fractions: expected 3 shares",
        ),
        (["run", "--percent", "150"], f"{PERCENT}, got 150"),
        (["run", "--percent", "-5"], f"{PERCENT}, got -5"),
        ([*TRACED, "--metrics-interval", "nan"], f"{INTERVAL}, got nan"),
        ([*TRACED, "--metrics-interval", "inf"], f"{INTERVAL}, got inf"),
    ],
    ids=[
        "report-scale",
        "search-scale",
        "run-scale",
        "fleet-scale",
        "fleet-reversed-schedule",
        "fleet-nan-share",
        "fleet-share-count",
        "run-percent-above",
        "run-percent-below",
        "fleet-nan-metrics-interval",
        "fleet-inf-metrics-interval",
    ],
)
def test_bad_value_fails_before_any_cell(
    argv, message, capsys, tmp_path, monkeypatch
):
    """One error line and exit 2 before a batch is announced, a pool
    started or a cell run."""
    cache = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "summary.json"
    if argv[0] == "fleet":
        argv = [*argv, "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "batch:" not in captured.out
    assert message in captured.err
    assert captured.err.count("error:") == 1
    assert len(captured.err.strip().splitlines()) == 1
    assert not cache.exists() or list(cache.iterdir()) == []
    assert not out.exists()
    assert not (tmp_path / "trace.json").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--runs", "0"], "runs_per_setting must be >= 1"),
        (["--beta", "-1"], "beta must be non-negative"),
        (["--beta", "nan", "--scale", "0.002"], "beta must be finite, got nan"),
        (["--protocols", "bsp,asp", "--runs", "0"],
         "runs_per_setting must be >= 1"),
    ],
    ids=["runs", "beta", "beta-nan", "schedule-runs"],
)
def test_search_bad_number_is_a_usage_error(
    argv, message, capsys, tmp_path, monkeypatch
):
    """Both search modes build their config inside the one ``try``."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["--quiet", "search", *argv]) == 2
    _assert_one_error_line(capsys, message)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["report", "fig5b", "--seeds", "0"], "--seeds must be >= 1"),
        (["report", "fig5b", "--seeds", "-1"], "--seeds must be >= 1"),
        (["report", "tab1", "--seeds", "0"], "--seeds must be >= 1"),
        (["run", "--setup", "1", "--seed", "-1"], "seed must be >= 0, got -1"),
    ],
    ids=["fig5b-zero", "fig5b-negative", "tab1-zero", "run-negative-seed"],
)
def test_bad_seed_flag_is_a_usage_error(
    argv, message, capsys, tmp_path, monkeypatch
):
    """No seed count below one renders an empty table, and no negative
    job seed reaches numpy's generator."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["--quiet", *argv, "--scale", "0.008"]) == 2
    _assert_one_error_line(capsys, message)
    assert list(tmp_path.iterdir()) == []


def test_fleet_negative_seed_is_valid(tmp_path, monkeypatch):
    """A fleet seed only roots child seeds, so any integer is valid."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    out_path = tmp_path / "fleet_summary.json"
    assert main(["--quiet", "fleet", "--scenario", "surge", "--jobs", "2",
                 "--scheduler", "fifo", "--policy", "sync-switch",
                 "--scale", "0.008", "--seed", "-3",
                 "--out", str(out_path)]) == 0
    assert out_path.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        (None, ": expected a readable JSON file, got FileNotFoundError("),
        ('{"jobs": [', ": expected a readable JSON file, got JSONDecodeError("),
        ("[1, 2]", ": expected a JSON object, got [1, 2]"),
    ],
    ids=["missing", "truncated", "list"],
)
def test_fleet_bad_workload_trace_is_a_usage_error(
    text, message, capsys, tmp_path
):
    trace = tmp_path / "trace.json"
    if text is not None:
        trace.write_text(text, encoding="utf-8")
    assert main(["--quiet", "fleet", "--workload-trace", str(trace)]) == 2
    _assert_one_error_line(capsys, f"error: trace {trace}{message}")


@pytest.mark.parametrize(
    "entry, message",
    [
        ('"abc"', "jobs[1]: expected a JSON object, got 'abc'"),
        ('{"job_id": 0, "arrival": 0.0, "n_workers": 2.5}',
         "jobs[1].n_workers: expected an integer >= 1, got 2.5"),
        ('{"job_id": 0, "arrival": NaN}',
         "jobs[1].arrival: expected a finite number >= 0, got nan"),
        ('{"job_id": 0.5, "arrival": 0.0}',
         "jobs[1].job_id: expected an integer >= 0, got 0.5"),
        ('{"job_id": 0, "arrival": 0.0, "deadline": true}',
         "jobs[1].deadline: expected a finite number > 0 or null, got True"),
        ('{"job_id": 0, "arrival": 0.0, "setup_index": true}',
         "jobs[1].setup_index: expected one of (1, 2, 3), got True"),
        ('{"job_id": 0, "arrival": 0.0, "steps_scale": Infinity}',
         "jobs[1].steps_scale: expected a finite number > 0, got inf"),
        ('{"job_id": 0, "arrival": 0.0, "percent_override": "5"}',
         "jobs[1].percent_override: expected a finite number >= 0.0 "
         "and <= 100.0 or null, got '5'"),
        ('{"job_id": 0, "arrival": 0.0, "n_workers": -1}',
         "jobs[1].n_workers: expected an integer >= 1, got -1"),
        ('{"job_id": 0, "arrival": 0.0, "protocols": ["bsp", "asp"], '
         '"fractions": "ab"}',
         "jobs[1].fractions: expected a non-empty list or null, got 'ab'"),
        ('{"job_id": 0, "arrival": 0.0, "protocols": ["bsp", "asp"], '
         '"fractions": [0.5, "x"]}',
         "jobs[1].fractions[1]: expected a finite number >= 0.0 and "
         "<= 1.0, "
         "got 'x'"),
        ('{"job_id": 0, "arrival": 0.0, "protocols": "bsp", '
         '"fractions": [1.0]}',
         "jobs[1].protocols: expected a non-empty list or null, got 'bsp'"),
        ('{"job_id": 0, "arrival": 0.0, "tier": 3}',
         "jobs[1].tier: expected a non-empty string or null, got 3"),
        ('{"job_id": 0, "arrival": 0.0, "protocols": ["bsp", "asp"], '
         '"fractions": [0.3, 0.3]}',
         "jobs[1].fractions: expected shares summing to 1, got (0.3, 0.3)"),
        ('{"job_id": 0, "arrival": 0.0, "priority": 9}',
         "jobs[1].priority: expected no such key, got 9"),
        ('{"arrival": 0.0}',
         "jobs[1].job_id: expected an integer >= 0, got no such key"),
    ],
    ids=["not-an-object", "fractional-workers", "nan-arrival",
         "fractional-id", "bool-deadline", "bool-setup", "infinite-scale",
         "string-percent", "negative-workers", "string-fractions",
         "string-in-fractions", "string-protocols", "integer-tier",
         "fractions-sum", "unknown-key", "missing-key"],
)
def test_fleet_hostile_trace_entry_is_a_usage_error(
    entry, message, capsys, tmp_path, monkeypatch
):
    """Every bad field of a job entry is one line naming the trace and
    the field's JSON path — not a traceback from the pool, and not a job
    that gets simulated."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    trace = tmp_path / "trace.json"
    trace.write_text(
        '{"jobs": [{"job_id": 7, "arrival": 1.0}, %s]}' % entry,
        encoding="utf-8",
    )
    out = tmp_path / "summary.json"
    argv = ["--quiet", "fleet", "--workload-trace", str(trace),
            "--scheduler", "fifo", "--policy", "bsp", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: trace {trace}: {message}\n"
    assert not out.exists()


def test_internal_fleet_error_keeps_its_traceback(monkeypatch, tmp_path):
    from repro.errors import FleetError
    from repro.fleet import FleetSimulator

    def inconsistent(self):
        raise FleetError("pool partition violated")

    monkeypatch.setattr(FleetSimulator, "run", inconsistent)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    with pytest.raises(FleetError):
        main(["--quiet", "fleet", "--out", str(tmp_path / "summary.json")])


def test_fleet_policy_store_requires_single_scheduler(capsys):
    assert main(["fleet", "--policy-store", "s.json",
                 "--policy", "sync-switch"]) == 2
    assert "--scheduler" in capsys.readouterr().err


def test_fleet_policy_store_requires_policy_without_tune(capsys):
    assert main(["fleet", "--policy-store", "s.json",
                 "--scheduler", "fifo"]) == 2
    assert "--policy" in capsys.readouterr().err


def test_fleet_policy_store_rejects_seeds(capsys):
    assert main(["fleet", "--policy-store", "s.json", "--scheduler", "fifo",
                 "--policy", "bsp", "--seeds", "2"]) == 2
    assert "--seeds" in capsys.readouterr().err


def test_fleet_policy_store_round_trip(capsys, tmp_path, monkeypatch):
    """Cold tune populates the store; a warm rerun reuses it (0 searches)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    store_path = tmp_path / "store.json"
    out_path = tmp_path / "summary.json"
    argv = ["fleet", "--scenario", "surge", "--jobs", "1", "--tune",
            "--scheduler", "fifo", "--policy-store", str(store_path),
            "--out", str(out_path)]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "0 warm class(es) loaded, 1 persisted" in cold
    assert store_path.exists()
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "1 warm class(es) loaded, 1 persisted" in warm
    assert "1 recurrence(s)" in warm


def test_fleet_policy_store_scale_mismatch_rejected(capsys, tmp_path):
    from repro.fleet import PolicyStore

    store_path = tmp_path / "store.json"
    PolicyStore().save(store_path, scale=0.008)
    assert main(["fleet", "--policy-store", str(store_path),
                 "--scheduler", "fifo", "--policy", "bsp",
                 "--scale", "0.02"]) == 2
    assert "not comparable across scales" in capsys.readouterr().err


def test_fleet_policy_store_unknown_version_is_a_usage_error(capsys, tmp_path):
    store_path = tmp_path / "store.json"
    store_path.write_text('{"version": 99, "policies": []}', encoding="utf-8")
    assert main(["--quiet", "fleet", "--policy-store", str(store_path),
                 "--scheduler", "fifo", "--policy", "bsp"]) == 2
    _assert_one_error_line(
        capsys,
        f"error: policy store {store_path}: version: expected an integer "
        ">= 1 and <= 2, got 99",
    )


def _store_with(**edits) -> bytes:
    """A one-class version-2 store file with ``edits`` applied to its row."""
    import json

    row = {
        "setup_index": 1, "n_workers": 8, "protocols": ["bsp", "asp"],
        "fractions": None, "percent": 6.25, "target_accuracy": 0.3,
        "bsp_time": 40.0, "policy_time": 20.0, "search_cost": 200.0,
        "n_trials": 5, "tuned_at": 3.0, "recurrences": 2,
        "realized_savings": 40.0, "breakeven_recurrence": None,
        "realized_service_sum": 40.0, "realized_service_count": 2,
    }
    row.update(edits)
    payload = {"version": 2, "scale": None, "classes": [row]}
    return json.dumps(payload).encode("utf-8")


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe\x00store",
         ": expected a readable JSON file, got UnicodeDecodeError("),
        (b'{"version": 2, "classes": 3}',
         ": classes: expected a list, got 3"),
        (b'{"version": 2, "scale": "big", "classes": []}',
         ": scale: expected a finite number > 0.0 or null, got 'big'"),
        (_store_with(percent=float("nan")),
         ": classes[0].percent: expected a finite number >= 0.0 and "
         "<= 100.0, got nan"),
        (_store_with(percent=640),
         ": classes[0].percent: expected a finite number >= 0.0 and "
         "<= 100.0, got 640"),
        (_store_with(percent="6.25"),
         ": classes[0].percent: expected a finite number >= 0.0 and "
         "<= 100.0, got '6.25'"),
        (_store_with(n_workers=8.9),
         ": classes[0].n_workers: expected an integer >= 1, got 8.9"),
        (_store_with(n_workers=True),
         ": classes[0].n_workers: expected an integer >= 1, got True"),
        (_store_with(recurrences=-5),
         ": classes[0].recurrences: expected an integer >= 0, got -5"),
        (_store_with(policy_time=-1),
         ": classes[0].policy_time: expected a finite number >= 0.0, got -1"),
        (_store_with(protocols="bsp"),
         ": classes[0].protocols: expected a non-empty list, got 'bsp'"),
        (_store_with(fractions=[0.3, 0.3]),
         ": classes[0].fractions: expected shares summing to 1, "
         "got (0.3, 0.3)"),
        # A null row is the two-phase switch at its percent; with three
        # protocols it would train BSP -> ASP and ignore them.
        (_store_with(protocols=["bsp", "ssp", "asp"]),
         ": classes[0].fractions: expected a list (null only with two "
         "protocols), got None"),
    ],
    ids=["non-utf8", "classes-not-a-list", "scale-not-a-number",
         "nan-percent", "percent-640", "string-percent",
         "fractional-workers", "bool-workers", "negative-recurrences",
         "negative-time", "string-protocols", "fractions-sum",
         "null-fractions-three-protocols"],
)
def test_fleet_hostile_policy_store_is_a_usage_error(
    content, message, capsys, tmp_path, monkeypatch
):
    from repro.fleet import FleetSimulator

    def simulated(self):
        raise AssertionError("the stream ran on a store that cannot load")

    monkeypatch.setattr(FleetSimulator, "run", simulated)
    store_path = tmp_path / "store.json"
    store_path.write_bytes(content)
    assert main(["--quiet", "fleet", "--policy-store", str(store_path),
                 "--scheduler", "fifo", "--policy", "bsp"]) == 2
    _assert_one_error_line(
        capsys, f"error: policy store {store_path}{message}"
    )
    assert store_path.read_bytes() == content


@pytest.mark.parametrize("dies_in", ["json.dumps", "os.replace"])
def test_policy_store_save_is_atomic(dies_in, tmp_path, monkeypatch):
    """A save that dies on the way — while serializing, or at the
    commit itself — leaves the previous store readable and no litter."""
    import json
    import os

    from repro.fleet import PolicyStore

    store_path = tmp_path / "store.json"
    PolicyStore().save(store_path, scale=0.008)
    before = store_path.read_bytes()

    def interrupted(*_args, **_kwargs):
        raise KeyboardInterrupt

    module, name = {"json.dumps": (json, "dumps"), "os.replace": (os, "replace")}[
        dies_in
    ]
    with monkeypatch.context() as patch:
        patch.setattr(module, name, interrupted)
        with pytest.raises(KeyboardInterrupt):
            PolicyStore().save(store_path, scale=0.016)
    assert store_path.read_bytes() == before
    assert [path.name for path in tmp_path.iterdir()] == ["store.json"]
    PolicyStore.load(store_path, scale=0.008)


def test_report_recomputes_a_half_written_cache_blob(
    capsys, tmp_path, monkeypatch
):
    """A truncated blob in a warm cache is a miss, not a traceback: the
    report is unchanged and the blob is whole again afterwards."""
    import json

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    argv = ["--quiet", "report", "fig5b", "fig10", "--scale", "0.002",
            "--seeds", "1"]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    blob = sorted(tmp_path.glob("*.json"))[0]
    whole = blob.read_bytes()
    blob.write_bytes(whole[: len(whole) // 2])
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == cold and "Traceback" not in captured.err
    assert json.loads(blob.read_text(encoding="utf-8")) == json.loads(whole)


@pytest.fixture(scope="module")
def sweep_cache(tmp_path_factory):
    """The cache a cold ``report fig5b fig10`` leaves, and its stdout."""
    import contextlib
    import io

    cache = tmp_path_factory.mktemp("sweep-cache")
    argv = ["--quiet", "report", "fig5b", "fig10", "--scale", "0.002",
            "--seeds", "1"]
    stdout = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(cache))
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0
    return cache, argv, stdout.getvalue()


@pytest.mark.parametrize(
    "field, value",
    [
        ("reported_accuracy", float("nan")),
        ("reported_accuracy", 2.5),
        ("diverged", "no"),
        ("total_time", "x"),
    ],
    ids=["nan-accuracy", "accuracy-2.5", "string-diverged", "string-time"],
)
def test_report_recomputes_a_blob_that_fails_its_table(
    field, value, sweep_cache, capsys, monkeypatch
):
    """A blob that parses but holds a value its class's table rejects is
    the same miss as a truncated one — not a different table, exit 0."""
    import json

    cache, argv, cold = sweep_cache
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
    for blob in sorted(cache.glob("*.json"))[:2]:  # every blob is shown
        whole = blob.read_bytes()
        edited = json.loads(whole)
        edited[field] = value
        blob.write_text(json.dumps(edited), encoding="utf-8")
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == cold and captured.err == ""
        assert blob.read_bytes() == whole


def test_fleet_recomputes_a_summary_blob_that_fails_its_table(
    capsys, tmp_path, monkeypatch
):
    """Same for a fleet cell; an *older-shape* blob (keys added later
    are absent) still loads and is left as it is."""
    import json

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    argv = ["--quiet", "fleet", "--scenario", "surge", "--jobs", "1",
            "--scheduler", "fifo", "--policy", "bsp", "--scale", "0.002",
            "--out", str(tmp_path / "summary.json")]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    (blob,) = (tmp_path / "cache").glob("*.json")
    whole = blob.read_bytes()

    hostile = dict(json.loads(whole), jobs=[{"job_id": "a"}])
    blob.write_text(json.dumps(hostile), encoding="utf-8")
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == cold and captured.err == ""
    assert blob.read_bytes() == whole

    older = json.loads(whole)
    for key in ("n_search_jobs", "search_time", "n_rejected", "n_degraded",
                "n_deadline_jobs", "slo_attainment", "tuning",
                "staleness_p50", "staleness_p95", "staleness_max"):
        del older[key]
    for record in older["jobs"]:
        for key in ("kind", "deadline", "tuned", "degraded", "outcome",
                    "allocations", "staleness"):
            del record[key]
    blob.write_text(json.dumps(older), encoding="utf-8")
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == cold and captured.err == ""
    assert json.loads(blob.read_bytes()) == older


@pytest.mark.parametrize("stale", ["null", "missing"])
def test_fleet_recomputes_a_tuned_blob_without_schedules(
    stale, capsys, tmp_path, monkeypatch
):
    """A tuned cell cached before every policy carried its schedule has
    ``"fractions": null`` tuning rows under an unchanged cache key: a
    miss, recomputed and rewritten, not a summary that reads ``null``."""
    import json

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    out = tmp_path / "tuned.json"
    argv = ["--quiet", "fleet", "--scenario", "surge", "--jobs", "2",
            "--scale", "0.001", "--tune", "--seeds", "1", "--out", str(out)]
    assert main(argv) == 0
    cold, written = capsys.readouterr().out, out.read_bytes()
    blobs = [
        blob for blob in sorted((tmp_path / "cache").glob("*.json"))
        if json.loads(blob.read_bytes()).get("tuning")
    ]
    assert blobs
    for blob in blobs:
        whole = blob.read_bytes()
        older = json.loads(whole)
        for row in older["tuning"]:
            if stale == "null":
                row["fractions"] = None
            else:
                del row["fractions"]
        blob.write_text(json.dumps(older), encoding="utf-8")
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == cold and captured.err == ""
        assert blob.read_bytes() == whole
        assert out.read_bytes() == written


#: A minimal ``fleet`` argv that trips each row of the conflict table.
CONFLICT_ARGV = {
    "jobs-with-workload-trace": ["--workload-trace", "t.json", "--jobs", "2"],
    "seeds-without-tune": ["--seeds", "2"],
    "metrics-interval-without-trace": ["--metrics-interval", "5"],
    "trace-with-tune": ["--trace", "t.json", "--tune"],
    "fractions-without-protocols": ["--fractions", "0.5,0.5"],
    "protocols-without-fractions": ["--protocols", "bsp,asp"],
    "fractions-with-tune": ["--tune", "--protocols", "bsp,asp",
                            "--fractions", "0.5,0.5"],
    "protocols-with-static-policy": ["--policy", "bsp", "--protocols",
                                     "bsp,asp", "--fractions", "0.5,0.5"],
    "tiers-with-single-stream": ["--tiers", "none", "--tune"],
    "shards-without-trace-scenario": ["--shards", "2"],
    "sharded-trace-with-tune": ["--scenario", "trace", "--tune"],
    "sharded-trace-with-trace": ["--scenario", "trace", "--trace", "t.json"],
    "sharded-trace-with-policy-store": ["--scenario", "trace",
                                        "--policy-store", "s.json"],
    "sharded-trace-with-protocols": ["--scenario", "trace", "--protocols",
                                     "bsp,asp", "--fractions", "0.5,0.5"],
    "policy-store-needs-scheduler": ["--policy-store", "s.json",
                                     "--policy", "sync-switch"],
    "policy-store-tune-policy": ["--policy-store", "s.json", "--scheduler",
                                 "fifo", "--tune", "--policy", "bsp"],
    "policy-store-needs-policy": ["--policy-store", "s.json",
                                  "--scheduler", "fifo"],
    "policy-store-with-seeds": ["--policy-store", "s.json", "--scheduler",
                                "fifo", "--tune", "--seeds", "2"],
    "tune-with-policy": ["--tune", "--policy", "bsp"],
    "tune-with-seed": ["--tune", "--seed", "7"],
    "tune-seeds-below-one": ["--tune", "--seeds", "0"],
    "procs-below-one": ["--procs", "0"],
}


def test_every_fleet_conflict_row_has_an_argv():
    from repro.commands.fleet import CONFLICTS

    assert [name for name, _, _ in CONFLICTS] == list(CONFLICT_ARGV)


@pytest.mark.parametrize("name", CONFLICT_ARGV)
def test_fleet_flag_conflict_is_a_usage_error(
    name, capsys, tmp_path, monkeypatch
):
    """Each table row: exit 2, exactly its message, nothing simulated."""
    from repro.commands.fleet import CONFLICTS
    from repro.fleet import TRACE_SCENARIOS, FleetSimulator

    def simulated(self):
        raise AssertionError("a refused flag combination was simulated")

    monkeypatch.setattr(FleetSimulator, "run", simulated)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.chdir(tmp_path)
    argv = ["fleet", *CONFLICT_ARGV[name]]
    [message] = [text for row, _, text in CONFLICTS if row == name]
    expected = message.format(
        args=build_parser().parse_args(argv),
        traces=", ".join(sorted(TRACE_SCENARIOS)),
    )
    assert main(["--quiet", *argv]) == 2
    assert capsys.readouterr().err == expected + "\n"
    assert list(tmp_path.iterdir()) == []


def test_fleet_policy_store_tune_stream_can_be_traced(
    capsys, tmp_path, monkeypatch
):
    """``--trace --tune`` is refused for the comparison grid only: with
    ``--policy-store`` the run is one stream, and the only CLI route to
    the in-fleet search's trace instants."""
    from repro.obs import validate
    from repro.obs.export import load_chrome_trace

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    trace = tmp_path / "trace.json"
    argv = ["fleet", "--scenario", "recurring", "--jobs", "3", "--scale",
            "0.002", "--scheduler", "fifo", "--tune", "--policy-store",
            str(tmp_path / "store.json"), "--trace", str(trace),
            "--out", str(tmp_path / "summary.json")]
    assert main(["--quiet", *argv]) == 0
    assert validate.main([str(trace), "--min-categories", "6"]) == 0
    assert capsys.readouterr().err == ""
    events = load_chrome_trace(trace)
    names = {e["name"] for e in events if e.get("cat") == "search"}
    assert {"search-begin", "search-trial-done", "search-complete"} <= names


def test_parser_schedule_flags():
    parser = build_parser()
    args = parser.parse_args(
        ["search", "--protocols", "bsp,ssp,asp", "--protocols", "bsp,asp"]
    )
    assert args.protocols == ["bsp,ssp,asp", "bsp,asp"]
    args = parser.parse_args(
        ["fleet", "--protocols", "bsp,ssp,asp", "--fractions", "0.4,0.3,0.3"]
    )
    assert args.protocols == "bsp,ssp,asp"
    assert args.fractions == "0.4,0.3,0.3"


def test_fleet_fractions_need_protocols(capsys):
    assert main(["fleet", "--fractions", "0.5,0.5"]) == 2
    assert "--protocols" in capsys.readouterr().err


def test_fleet_protocols_need_fractions_or_tune(capsys):
    assert main(["fleet", "--protocols", "bsp,asp"]) == 2
    assert "--fractions" in capsys.readouterr().err


def test_fleet_fractions_do_not_combine_with_tune(capsys):
    assert main(["fleet", "--tune", "--protocols", "bsp,asp",
                 "--fractions", "0.5,0.5"]) == 2
    assert "--tune" in capsys.readouterr().err


def test_fleet_malformed_fractions_rejected(capsys):
    assert main(["fleet", "--protocols", "bsp,asp",
                 "--fractions", "half,half"]) == 2
    assert "comma-separated numbers" in capsys.readouterr().err


def test_search_invalid_schedule_rejected(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["search", "--protocols", "asp,bsp", "--scale",
                 "0.008", "--runs", "1"]) == 2
    assert "more to less precise" in capsys.readouterr().err


def test_search_schedule_command_tiny(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["search", "--setup", "3", "--scale", "0.008", "--runs",
                 "1", "--protocols", "bsp,asp"]) == 0
    out = capsys.readouterr().out
    assert "found schedule   : BSP -> ASP" in out
    assert "fractions" in out


def test_fleet_fixed_schedule_command_tiny(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    out_path = tmp_path / "fleet_summary.json"
    assert main(["fleet", "--scenario", "surge", "--jobs", "2",
                 "--scheduler", "fifo", "--policy", "sync-switch",
                 "--scale", "0.008", "--protocols", "bsp,ssp,asp",
                 "--fractions", "0.25,0.25,0.5",
                 "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "Fleet (surge)" in out
    assert out_path.exists()
