"""Tier-1 checks on the ledger's own machinery (no benchmark is run).

The manifest, the workload table and the metric registry must agree;
span wrappers must leave no trace behind; self time and digests must
be computed the way the README says.
"""

from __future__ import annotations

import json
import re
import sys

import pytest

from ledger.layers import LAYERS, install
from ledger.metrics import END_TO_END, PER_LAYER, manifest, spread
from ledger.spans import SpanRecorder, self_times
from ledger.units import end_to_end, headline_pair
from ledger.workloads import (
    ROOT,
    WORKLOADS,
    Prepared,
    Sample,
    digest,
    program_seeds,
    verify,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# ----------------------------------------------------------------------
# BENCHMARK.json <-> workload table <-> metric registry
# ----------------------------------------------------------------------


def test_manifest_is_the_registry_written_out():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == manifest(WORKLOADS)


def test_manifest_stays_inside_the_contract():
    document = manifest(WORKLOADS)
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in document[key]
    ]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.fullmatch(name), name
    for entry in document["end_to_end"] + document["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    for entry in document["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    for entry in document["workloads"]:
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    setup = [e for e in document["end_to_end"] if e["name"] == "setup_s"]
    assert setup == [
        {"name": "setup_s", "unit": "s", "better": "lower",
         "bound": max(metric.bound for metric in END_TO_END)}
    ]


def test_every_layer_has_its_span_rows():
    names = {metric.name for metric in PER_LAYER}
    for layer in LAYERS:
        assert {f"{layer}.self_s", f"{layer}.calls"} <= names


def test_program_seed_panels_are_disjoint_between_benchmark_seeds():
    for workload in WORKLOADS:
        first, second = program_seeds(workload, 0), program_seeds(workload, 1)
        if workload.panel:
            assert len(first) == workload.panel
            assert not set(first) & set(second)
        else:
            assert first == second == [0]


# ----------------------------------------------------------------------
# span wrappers
# ----------------------------------------------------------------------


class _Target:
    def work(self, value):
        if value < 0:
            raise ValueError("negative")
        return value * 2


def test_wrappers_restore_even_when_the_call_raises():
    original = _Target.__dict__["work"]
    seen = []

    def before(args, kwargs):
        return seen.append  # called with the result once the span closed

    with SpanRecorder() as recorder:
        recorder.wrap_method(_Target, "work", "test:work", before)
        assert _Target.__dict__["work"] is not original
        assert _Target().work(2) == 4
        with pytest.raises(ValueError):
            _Target().work(-1)
        assert [row[0] for row in recorder.spans] == ["test:work"] * 2
        assert all(row[2] is not None for row in recorder.spans)
    assert _Target.__dict__["work"] is original
    assert seen == [4, None]


def test_functions_are_patched_where_they_are_looked_up():
    import types

    definer = types.ModuleType("ledgertest.definer")
    importer = types.ModuleType("ledgertest.importer")

    def helper():
        return "ran"

    definer.helper = importer.alias = helper
    sys.modules.update({definer.__name__: definer, importer.__name__: importer})
    try:
        recorder = SpanRecorder()
        recorder.wrap_function(helper, "test:helper", package="ledgertest")
        assert definer.helper is importer.alias is not helper
        assert importer.alias() == "ran" and len(recorder.spans) == 1
        recorder.restore()
        assert definer.helper is importer.alias is helper
    finally:
        del sys.modules[definer.__name__], sys.modules[importer.__name__]


def test_install_wraps_every_layer_and_restores_the_program():
    from collections import Counter

    import repro.cli  # noqa: F401  (loads every layer)
    from repro.mlcore.models import ResidualMLPClassifier

    def module_attributes():
        return {
            (name, attr): value
            for name, module in sys.modules.items()
            if name.startswith("repro") and module is not None
            for attr, value in vars(module).items()
        }

    before = module_attributes()
    recorder = SpanRecorder()
    try:
        install(recorder, Counter())
        patched = [
            key
            for key, value in module_attributes().items()
            if value is not before[key]
        ]
        # e.g. disk_load is looked up in executor, runner and fleet
        assert len(patched) > len(LAYERS)
        assert hasattr(ResidualMLPClassifier.loss_and_grad, "__wrapped__")
    finally:
        recorder.restore()
    after = module_attributes()
    assert all(after[key] is value for key, value in before.items())
    assert not hasattr(ResidualMLPClassifier.loss_and_grad, "__wrapped__")


def test_self_time_is_duration_minus_children():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: next(ticks))
    outer = recorder.begin("a:outer")  # 0
    inner = recorder.begin("b:inner")  # 1
    leaf = recorder.begin("a:leaf")  # 2
    recorder.end(leaf)  # 3
    recorder.end(inner)  # 4
    again = recorder.begin("b:inner")  # 5
    recorder.end(again)  # 6
    recorder.end(outer)  # 7
    table = self_times(recorder.spans)
    assert table["a:outer"] == {"self_s": 7 - 3 - 1, "total_s": 7, "calls": 1}
    assert table["b:inner"] == {"self_s": 2 + 1, "total_s": 4, "calls": 2}
    assert table["a:leaf"] == {"self_s": 1, "total_s": 1, "calls": 1}
    assert sum(row["self_s"] for row in table.values()) == 7


# ----------------------------------------------------------------------
# output checks and metric arithmetic
# ----------------------------------------------------------------------


def test_digest_ignores_key_order_but_not_values():
    blob = {"b": [1.5, {"y": 2, "x": 1}], "a": None}
    shuffled = {"a": None, "b": [1.5, {"x": 1, "y": 2}]}
    assert digest({"k": blob}) == digest({"k": shuffled})
    assert digest({"k": blob}) != digest({"k": {**blob, "a": 0}})


def _sample(seed, wall, digest_value="d", records=None, out=None):
    sample = Sample(seed, wall, wall, 100.0)
    sample.digest = digest_value
    sample.out_bytes = out
    sample.records = records or [
        {"steps": 100, "accuracy": 0.5, "sim_time": 10.0}
    ]
    return sample


def test_verify_pins_then_falls_back_to_agreement():
    workload = WORKLOADS[2]
    good = [_sample(0, 1.0), _sample(0, 1.1)]
    assert verify(workload, good, Prepared(), {"0": "d"}) == []
    assert not any(sample.failures for sample in good)

    wrong = [_sample(0, 1.0, "other")]
    verify(workload, wrong, Prepared(), {"0": "d"})
    assert wrong[0].failures

    unpinned = [_sample(7, 1.0, "x"), _sample(7, 1.0, "y")]
    notices = verify(workload, unpinned, Prepared(), {"0": "d"})
    assert "agree" in notices[0] and unpinned[1].failures

    foreign = [_sample(0, 1.0, "elsewhere")]
    assert verify(workload, foreign, Prepared(), None) and not foreign[0].failures


def test_verify_compares_the_pool_summary_byte_for_byte():
    prepared = Prepared(out_bytes=b"{}", reference_seed=0)
    same, differs = _sample(0, 1.0, out=b"{}"), _sample(0, 1.0, out=b"{ }")
    verify(WORKLOADS[3], [same, differs], prepared, None)
    assert not same.failures and differs.failures


def test_end_to_end_takes_seed_medians_then_the_panel_mean():
    samples = [
        _sample(0, 1.0), _sample(1, 4.0), _sample(0, 3.0), _sample(0, 2.0),
    ]
    values = end_to_end(samples, [0.3, 0.1, 0.2])
    assert values["wall_s"] == pytest.approx((2.0 + 4.0) / 2)
    assert values["sim_steps_per_s"] == pytest.approx(200 / 6.0)
    assert values["setup_s"] == 0.2
    assert values["sim_accuracy"] == 0.5 and values["sim_time_s"] == 10.0


def test_headline_pair_reads_the_printed_figure():
    stdout = "\n".join(
        [
            "== Figure 10: End-to-end comparison ==",
            "setup  configuration  accuracy  normalized_time  diverged_runs",
            "1      BSP            0.6255    1                0",
            "1      ASP            0.5895    0.1657           0",
            "1      Sync-Switch    0.6225    0.25             0",
            "paper:",
            "1      Sync-Switch    0.923     0.195",
        ]
    )
    pair = headline_pair(stdout)
    assert pair["core.sim_speedup_vs_bsp"] == pytest.approx(4.0)
    assert pair["core.sim_accuracy_gap_vs_bsp"] == pytest.approx(-0.003)
    with pytest.raises(ValueError):
        headline_pair("no figure here")


def test_spread_is_the_interquartile_range_over_the_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert spread(values) == pytest.approx((17.25 - 11.75) / 14.5)
    assert spread([5.0]) == 0.0
