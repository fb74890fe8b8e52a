"""End-to-end ``repro lint`` CLI: exit codes, JSON schema, flags.

The committed fixture tree lives *inside* the repo, where the CLI
resolves the lint root to the repo root and the ``tests/...`` relpaths
fall outside every rule's scope.  These tests therefore copy the
fixtures to ``tmp_path`` so they are linted as their own mini-tree,
exactly like a user pointing ``repro lint`` at a scratch checkout.
"""

import json
import shutil

import pytest

from helpers_lint import FIXTURES
from repro.cli import main


@pytest.fixture()
def fixture_copy(tmp_path):
    target = tmp_path / "tree"
    shutil.copytree(FIXTURES, target)
    return target


def test_check_clean_tree_exits_zero(capsys):
    assert main(["lint", "--check"]) == 0
    out = capsys.readouterr().out
    assert "lint check ok" in out
    assert "0 finding(s)" in out


@pytest.mark.parametrize("rule", ["D001", "D002", "D003", "D005", "D006"])
def test_check_fails_per_rule_on_fixture_violations(fixture_copy, rule, capsys):
    code = main(["lint", str(fixture_copy), "--check", "--rules", rule])
    assert code == 1
    out = capsys.readouterr().out
    assert "lint check FAILED" in out
    assert f": {rule}: " in out


def test_plain_listing_exits_zero_and_prints_findings(fixture_copy, capsys):
    # without --check the command is informational: findings print,
    # exit stays 0 so exploratory runs never fail a shell pipeline
    assert main(["lint", str(fixture_copy), "--rules", "D001"]) == 0
    out = capsys.readouterr().out
    assert "repro/d001_violation.py:8: D001:" in out


def test_unknown_rule_exits_two(capsys):
    assert main(["lint", "--rules", "D999"]) == 2
    # D004 (cache-key completeness) is retired: fleet keys are the codec
    # encoding of their request, so there is nothing left to check.
    assert main(["lint", "--rules", "D004"]) == 2


def test_missing_path_exits_two(tmp_path):
    assert main(["lint", str(tmp_path / "nope")]) == 2


@pytest.mark.parametrize(
    "flags", [["--baseline", "x"], ["--write-baseline"]]
)
def test_retired_baseline_flags_are_usage_errors(flags, capsys):
    # a finding is excused inline (# repro-lint: disable=...) or not at
    # all: there is no baseline file to point at or write
    with pytest.raises(SystemExit) as exc:
        main(["lint", "--check", *flags])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_json_report_schema(fixture_copy, tmp_path):
    report_path = tmp_path / "lint.json"
    main(
        [
            "lint",
            str(fixture_copy),
            "--check",
            "--rules",
            "D001,D002",
            "--json",
            str(report_path),
        ]
    )
    payload = json.loads(report_path.read_text(encoding="utf-8"))
    assert payload["version"] == 2
    assert set(payload) == {
        "version", "root", "files_scanned", "rules", "findings", "summary"
    }
    assert payload["files_scanned"] > 0
    assert set(payload["rules"]) == {"D001", "D002"}
    for finding in payload["findings"]:
        assert set(finding) == {"rule", "path", "line", "message"}
        assert finding["rule"] in {"D001", "D002"}
    assert payload["summary"]["D001"] >= 5


def test_parse_error_fails_check(fixture_copy):
    (fixture_copy / "repro" / "broken.py").write_text(
        "def broken(:\n", encoding="utf-8"
    )
    assert (
        main(["lint", str(fixture_copy), "--check", "--rules", "D001"]) == 1
    )
