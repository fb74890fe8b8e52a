"""Pin the real source tree at zero unsuppressed findings.

This is the in-repo mirror of the CI ``repro lint --check`` gate: if a
change reintroduces direct RNG use, wall-clock reads, unordered-set
iteration, a keyless request field, a shared engine draw or an eager
import in a package ``__init__`` / the CLI, this test names the exact
file and line.  A deliberate exception is marked inline with
``# repro-lint: disable=...`` on the line that causes it.
"""

from repro.analysis import analyze_paths, default_rules, repo_root


def test_source_tree_has_no_findings():
    root = repo_root()
    report = analyze_paths([root / "src"], root, default_rules())
    assert report.all_findings == [], [
        f.render() for f in report.all_findings
    ]
