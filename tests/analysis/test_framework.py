"""Framework behaviors: suppression parsing, scoping, registry, roots."""

from pathlib import Path

import pytest

from repro.analysis import (
    RULE_REGISTRY,
    Finding,
    Rule,
    analyze_paths,
    default_rules,
    suppressed_lines,
)
from repro.analysis.framework import (
    iter_python_files,
    normalize_relpath,
    resolve_lint_root,
)


def test_suppression_parsing():
    source = "\n".join(
        [
            "a = 1",
            "b = 2  # repro-lint: disable=D001",
            "c = 3  # repro-lint: disable=D001,D004",
            "d = 4  # repro-lint: disable",
            "e = 5  # unrelated comment",
        ]
    )
    table = suppressed_lines(source)
    assert table == {
        2: frozenset({"D001"}),
        3: frozenset({"D001", "D004"}),
        4: None,
    }


def test_registry_has_all_shipped_rules():
    default_rules()  # force registration
    assert {"D001", "D002", "D003", "D005", "D006"} == set(RULE_REGISTRY)


def test_default_rules_subset_and_unknown_id():
    rules = default_rules(["D001", "D003"])
    assert [rule.id for rule in rules] == ["D001", "D003"]
    with pytest.raises(ValueError, match="unknown rule"):
        default_rules(["D999"])


def test_rule_scoping():
    rule = Rule()
    rule.scope = ("repro/distsim",)
    rule.exempt = ("repro/distsim/engines/base.py",)
    assert rule.applies("repro/distsim/events.py")
    assert rule.applies("repro/distsim/engines/asynchronous.py")
    assert not rule.applies("repro/distsim/engines/base.py")
    assert not rule.applies("repro/mlcore/models.py")


def test_normalize_relpath_strips_src(tmp_path):
    target = tmp_path / "src" / "repro" / "cli.py"
    target.parent.mkdir(parents=True)
    target.write_text("x = 1\n", encoding="utf-8")
    assert normalize_relpath(target, tmp_path) == "repro/cli.py"
    bare = tmp_path / "repro" / "rng.py"
    bare.parent.mkdir(parents=True)
    bare.write_text("x = 1\n", encoding="utf-8")
    assert normalize_relpath(bare, tmp_path) == "repro/rng.py"


def test_resolve_lint_root(tmp_path):
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    outside = tmp_path / "elsewhere" / "tree"
    outside.mkdir(parents=True)
    # paths under the default root keep it (the committed-baseline case)
    assert resolve_lint_root([repo / "src"], repo) == repo
    # a single outside directory becomes its own root
    assert resolve_lint_root([outside], repo) == outside
    # multiple outside paths share their common ancestor
    other = tmp_path / "elsewhere" / "other.py"
    other.write_text("x = 1\n", encoding="utf-8")
    assert (
        resolve_lint_root([outside, other], repo) == tmp_path / "elsewhere"
    )


def test_iter_python_files_skips_cache_dirs(tmp_path):
    keep = tmp_path / "pkg" / "mod.py"
    keep.parent.mkdir(parents=True)
    keep.write_text("x = 1\n", encoding="utf-8")
    skipped = tmp_path / "__pycache__" / "mod.py"
    skipped.parent.mkdir(parents=True)
    skipped.write_text("x = 1\n", encoding="utf-8")
    assert list(iter_python_files([tmp_path])) == [keep]


def test_syntax_error_becomes_parse_finding(tmp_path):
    bad = tmp_path / "repro" / "broken.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def broken(:\n", encoding="utf-8")
    report = analyze_paths([tmp_path], tmp_path, default_rules(["D001"]))
    assert report.findings == []
    assert len(report.parse_errors) == 1
    finding = report.parse_errors[0]
    assert finding.rule == "E001"
    assert finding.path == "repro/broken.py"


def test_finding_render():
    finding = Finding(
        path="repro/x.py", line=12, rule="D001", message="direct call"
    )
    assert finding.render() == "repro/x.py:12: D001: direct call"


def test_analyze_accepts_single_file(fixtures_root):
    target = fixtures_root / "repro" / "d001_violation.py"
    report = analyze_paths(
        [target], fixtures_root, default_rules(["D001"])
    )
    assert len(report.findings) == 5
    assert report.files_scanned == 1
