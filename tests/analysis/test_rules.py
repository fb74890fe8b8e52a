"""Per-rule positive/negative coverage over the fixture mini-tree.

The fixture tree under ``tests/analysis/fixtures`` mirrors the real
package layout (``repro/distsim/...``), so rule path-scoping is
exercised exactly as on the real tree.
"""

from collections import Counter

from helpers_lint import findings_for


def by_file(findings):
    return Counter(finding.path for finding in findings)


# ----------------------------------------------------------------------
# D001 — direct RNG use
# ----------------------------------------------------------------------


def test_d001_flags_every_direct_rng_call(fixtures_root):
    findings = findings_for(fixtures_root, ["D001"])
    violations = [
        f for f in findings if f.path == "repro/d001_violation.py"
    ]
    assert [f.line for f in violations] == [8, 9, 10, 11, 12]
    assert all(f.rule == "D001" for f in violations)


def test_d001_resolves_aliases_and_from_imports(fixtures_root):
    findings = findings_for(fixtures_root, ["D001"])
    messages = " ".join(
        f.message for f in findings if f.path == "repro/d001_violation.py"
    )
    # the alias np->numpy and both from-imports resolve to full paths
    assert "numpy.random.default_rng" in messages
    assert "random.shuffle" in messages
    assert "random.random" in messages


def test_d001_ignores_locals_annotations_and_rng_py(fixtures_root):
    findings = findings_for(fixtures_root, ["D001"])
    flagged = by_file(findings)
    assert "repro/d001_clean.py" not in flagged  # locals + annotations
    assert "repro/rng.py" not in flagged  # the sanctioned wrapper module


def test_d001_suppression_comments(fixtures_root):
    findings = [
        f
        for f in findings_for(fixtures_root, ["D001"])
        if f.path == "repro/d001_suppressed.py"
    ]
    # disable=D001, disable=D001,D002 and bare disable all suppress;
    # disable=D002 on a D001 finding does not.
    assert [f.line for f in findings] == [8]


# ----------------------------------------------------------------------
# D002 — wall-clock reads
# ----------------------------------------------------------------------


def test_d002_flags_wall_clock_in_simulation_code(fixtures_root):
    findings = [
        f
        for f in findings_for(fixtures_root, ["D002"])
        if f.path == "repro/distsim/d002_violation.py"
    ]
    assert [f.line for f in findings] == [7, 8, 9, 10]
    messages = " ".join(f.message for f in findings)
    assert "time.time" in messages
    assert "time.perf_counter" in messages
    assert "datetime.datetime.now" in messages
    assert "time.monotonic_ns" in messages


def test_d002_allowlist_and_locals(fixtures_root):
    flagged = by_file(findings_for(fixtures_root, ["D002"]))
    assert "repro/obs/export_clock.py" not in flagged  # obs export
    assert "repro/distsim/d002_clean.py" not in flagged  # local `time`


# ----------------------------------------------------------------------
# D003 — unordered-set iteration
# ----------------------------------------------------------------------


def test_d003_flags_set_iteration(fixtures_root):
    findings = [
        f
        for f in findings_for(fixtures_root, ["D003"])
        if f.path == "repro/distsim/d003_violation.py"
    ]
    assert [f.line for f in findings] == [8, 11, 14, 15, 16]


def test_d003_allows_sorted_and_order_free_consumers(fixtures_root):
    flagged = by_file(findings_for(fixtures_root, ["D003"]))
    assert "repro/distsim/d003_clean.py" not in flagged


def test_d003_scoped_to_simulation_modules(fixtures_root, tmp_path):
    # The same set iteration outside distsim/fleet/core is not flagged.
    outside = tmp_path / "repro" / "experiments"
    outside.mkdir(parents=True)
    (outside / "loops.py").write_text(
        "for x in {1, 2}:\n    pass\n", encoding="utf-8"
    )
    assert findings_for(tmp_path, ["D003"]) == []


# ----------------------------------------------------------------------
# D005 — engine shared-generator draws
# ----------------------------------------------------------------------


def test_d005_flags_private_stores_and_shared_draws(fixtures_root):
    findings = [
        f
        for f in findings_for(fixtures_root, ["D005"])
        if f.path == "repro/distsim/engines/d005_violation.py"
    ]
    assert sorted(f.line for f in findings) == [9, 10, 11]
    messages = " ".join(f.message for f in findings)
    assert "_time_rngs" in messages
    assert ".normal(...)" in messages
    assert ".lognormal(...)" in messages


def test_d005_accessor_paths_are_clean(fixtures_root):
    flagged = by_file(findings_for(fixtures_root, ["D005"]))
    assert "repro/distsim/engines/d005_clean.py" not in flagged
    assert "repro/distsim/engines/base.py" not in flagged  # exempt owner


# ----------------------------------------------------------------------
# D006 — eager imports in package __init__ files and the CLI
# ----------------------------------------------------------------------


def test_d006_flags_import_time_repro_imports(fixtures_root):
    findings = [
        f
        for f in findings_for(fixtures_root, ["D006"])
        if f.path == "repro/d006_eager/__init__.py"
    ]
    # absolute, from-, relative and try-guarded imports all run at
    # import time; stdlib, the lazy helper and function bodies do not
    assert [f.line for f in findings] == [5, 7, 9, 12]
    messages = " ".join(f.message for f in findings)
    assert "repro.rng" in messages
    assert "repro.d006_eager.impl" in messages
    assert "top-level import of .;" in messages


def test_d006_flags_the_cli_but_not_its_handlers(fixtures_root):
    findings = [
        f
        for f in findings_for(fixtures_root, ["D006"])
        if f.path == "repro/cli.py"
    ]
    assert [f.line for f in findings] == [6]
    assert "repro.fleet" in findings[0].message


def test_d006_scoped_to_init_files_and_cli(fixtures_root):
    flagged = by_file(findings_for(fixtures_root, ["D006"]))
    assert "repro/d006_lazy/__init__.py" not in flagged  # lazy_exports
    assert "repro/d006_eager/impl.py" not in flagged  # implementation module
    assert set(flagged) == {"repro/d006_eager/__init__.py", "repro/cli.py"}
