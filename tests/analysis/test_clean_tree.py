"""Pin the real source tree at zero non-baselined findings.

This is the in-repo mirror of the CI ratchet gate: if a change
reintroduces direct RNG use, wall-clock reads, unordered-set
iteration, a keyless request field, a shared engine draw or an eager
import in a package ``__init__`` / the CLI, this test names the exact
file and line.
"""

from repro.analysis import (
    Baseline,
    analyze_paths,
    default_rules,
    ratchet,
    repo_root,
)


def test_source_tree_has_no_new_findings():
    root = repo_root()
    report = analyze_paths([root / "src"], root, default_rules())
    baseline = Baseline.load(root / "tests" / "data" / "lint_baseline.json")
    result = ratchet(report.findings, baseline)
    assert report.parse_errors == [], [
        f.render() for f in report.parse_errors
    ]
    assert result.new == [], [f.render() for f in result.new]
    assert result.stale == [], [e.message for e in result.stale]
    # the tree is fully clean today; if a finding is ever baselined,
    # this count documents the debt explicitly
    assert len(baseline.entries) == 0
