"""``repro.analysis`` — the determinism & invariant static analyzer.

An AST rule engine behind ``python -m repro lint``: machine-checks the
conventions the reproduction's bit-identity guarantees rest on.

* **D001** — randomness only through :mod:`repro.rng` child streams.
* **D002** — no wall-clock reads in simulated code.
* **D003** — no unordered-set iteration in simulation modules.
* **D005** — engines draw RNG only via the per-worker session
  accessors.
* **D006** — package ``__init__`` files and ``cli.py`` import their
  collaborators lazily (the cold-start budget).

See ``docs/static_analysis.md`` for the rule catalog (with the past
incident each rule prevents), the suppression-comment syntax and the
gate (``--check`` fails on any unsuppressed finding).
"""

from repro._lazy import lazy_exports

__all__ = [
    "DirectRngRule",
    "EagerPackageImportRule",
    "EngineSharedRngRule",
    "FileContext",
    "Finding",
    "LintReport",
    "RULE_REGISTRY",
    "Rule",
    "SetIterationRule",
    "WallClockRule",
    "analyze_paths",
    "default_rules",
    "json_payload",
    "register",
    "render_text",
    "repo_root",
    "suppressed_lines",
    "write_json_report",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.analysis.framework": (
            "RULE_REGISTRY",
            "FileContext",
            "Finding",
            "LintReport",
            "Rule",
            "analyze_paths",
            "default_rules",
            "register",
            "repo_root",
            "suppressed_lines",
        ),
        "repro.analysis.report": (
            "json_payload",
            "render_text",
            "write_json_report",
        ),
        "repro.analysis.rules": (
            "DirectRngRule",
            "EagerPackageImportRule",
            "EngineSharedRngRule",
            "SetIterationRule",
            "WallClockRule",
        ),
    },
)
