"""Rule-engine core of ``repro lint``.

The determinism guarantees this reproduction leans on — bit-identical
golden hashes, ``--procs 1`` vs ``N`` equivalence, prefix-stable shard
assignment — are conventions (all randomness through
:mod:`repro.rng`, no wall clock in the simulator, lazy package
imports).  This module machine-checks them: it parses every source
file once, hands the shared AST to a registry of
:class:`Rule` objects and collects :class:`Finding` records, honouring
per-line suppression comments::

    value = risky_call()  # repro-lint: disable=D001
    other = risky_call()  # repro-lint: disable=D001,D002
    third = risky_call()  # repro-lint: disable

Adding a rule is ~50 lines: subclass :class:`Rule`, decorate it with
:func:`register`, and it participates in scoping, suppression and
reporting for free.  Every rule reads source only: the analyzer never
imports the program it lints.

Paths in findings are **relative to the lint root** with any leading
``src/`` stripped, so rule scoping (``repro/distsim/...``) works both
on the real tree and on the fixture mini-trees under
``tests/analysis/fixtures/``.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

__all__ = [
    "FileContext",
    "Finding",
    "LintReport",
    "RULE_REGISTRY",
    "Rule",
    "analyze_paths",
    "default_rules",
    "normalize_relpath",
    "register",
    "repo_root",
    "resolve_lint_root",
    "suppressed_lines",
]

#: ``# repro-lint: disable`` (all rules) or ``disable=D001,D003``.
_SUPPRESSION_RE = re.compile(
    r"#\s*repro-lint:\s*disable(?:=(?P<rules>[A-Z0-9,\s]+))?"
)

#: Directory names never descended into while collecting files.
_SKIP_DIRS = frozenset(
    {".git", ".exp_cache", "__pycache__", ".pytest_cache", ".hypothesis"}
)


def repo_root() -> Path:
    """The repository root (three levels above this package)."""
    return Path(__file__).resolve().parents[3]


def resolve_lint_root(paths: Sequence[Path], default: Path) -> Path:
    """The root findings are reported relative to.

    ``default`` (the repo root) when every scanned path lives under
    it — the CI case; otherwise the single directory
    being linted, or the deepest common ancestor of the paths (the
    fixture-tree case).
    """
    resolved = [path.resolve() for path in paths]
    anchor = default.resolve()
    if all(
        path == anchor or anchor in path.parents for path in resolved
    ):
        return anchor
    if len(resolved) == 1 and resolved[0].is_dir():
        return resolved[0]
    common = os.path.commonpath(
        [str(path if path.is_dir() else path.parent) for path in resolved]
    )
    return Path(common)


def normalize_relpath(path: Path, root: Path) -> str:
    """POSIX path of ``path`` relative to ``root``, ``src/`` stripped.

    Stripping the layout prefix keeps rule scopes (``repro/distsim``)
    stable whether the tree is linted from the
    repo root or from a fixture directory that mirrors the package.
    """
    relative = path.resolve().relative_to(root.resolve()).as_posix()
    if relative.startswith("src/"):
        relative = relative[len("src/"):]
    return relative


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        """``file:line:rule`` text form (the CLI's stdout format)."""
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


@dataclass(frozen=True)
class FileContext:
    """Everything a per-file rule needs: one parse, shared by all rules."""

    path: Path
    relpath: str
    source: str
    tree: ast.Module

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        """A :class:`Finding` anchored at ``node``'s first line."""
        return Finding(
            path=self.relpath,
            line=int(getattr(node, "lineno", 1)),
            rule=rule,
            message=message,
        )


class Rule:
    """A per-file AST check.

    Subclasses set :attr:`id`/:attr:`title` and implement
    :meth:`check`; :meth:`applies` scopes the rule to path prefixes
    (``scope``) minus exact-path exemptions (``exempt``).
    """

    id: str = ""
    title: str = ""
    #: Relpath prefixes the rule runs on (empty: every file).
    scope: tuple[str, ...] = ()
    #: Exact relpaths or prefixes the rule never flags.
    exempt: tuple[str, ...] = ()

    def applies(self, relpath: str) -> bool:
        """Whether ``relpath`` is in this rule's scope."""
        if any(
            relpath == entry or relpath.startswith(entry)
            for entry in self.exempt
        ):
            return False
        if not self.scope:
            return True
        return any(relpath.startswith(prefix) for prefix in self.scope)

    def check(self, context: FileContext) -> list[Finding]:
        """Findings for one file (override in subclasses)."""
        raise NotImplementedError


#: Rule id -> rule class, populated by :func:`register`.
RULE_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to :data:`RULE_REGISTRY`."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in RULE_REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id}")
    RULE_REGISTRY[cls.id] = cls
    return cls


def default_rules(select: Iterable[str] | None = None) -> tuple[Rule, ...]:
    """Instantiate the registered rules (optionally a subset by id)."""
    # Import for the registration side effect; delayed so the registry
    # and the rule modules can import each other's types freely.
    from repro.analysis import rules  # noqa: F401

    wanted = None if select is None else set(select)
    if wanted is not None:
        unknown = wanted - set(RULE_REGISTRY)
        if unknown:
            raise ValueError(
                "unknown rule id(s): " + ", ".join(sorted(unknown))
            )
    return tuple(
        RULE_REGISTRY[rule_id]()
        for rule_id in sorted(RULE_REGISTRY)
        if wanted is None or rule_id in wanted
    )


def suppressed_lines(source: str) -> dict[int, frozenset[str] | None]:
    """Map line number -> suppressed rule ids (``None``: all rules).

    Parsed with a comment regex rather than ``tokenize`` so syntactically
    broken files can still report their suppressions; a ``disable``
    marker inside a string literal is treated as real, which is
    harmless in practice and keeps the scan allocation-free.
    """
    table: dict[int, frozenset[str] | None] = {}
    for number, text in enumerate(source.splitlines(), start=1):
        if "repro-lint" not in text:
            continue
        match = _SUPPRESSION_RE.search(text)
        if match is None:
            continue
        raw = match.group("rules")
        if raw is None:
            table[number] = None
        else:
            table[number] = frozenset(
                part.strip() for part in raw.split(",") if part.strip()
            )
    return table


def _is_suppressed(
    finding: Finding, table: dict[int, frozenset[str] | None]
) -> bool:
    if finding.line not in table:
        return False
    rules = table[finding.line]
    return rules is None or finding.rule in rules


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Yield ``*.py`` files under ``paths`` (skipping cache/VCS dirs)."""
    seen: set[Path] = set()
    for path in paths:
        if path.is_file():
            resolved = path.resolve()
            if resolved not in seen and path.suffix == ".py":
                seen.add(resolved)
                yield path
            continue
        for candidate in sorted(path.rglob("*.py")):
            if any(part in _SKIP_DIRS for part in candidate.parts):
                continue
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


@dataclass
class LintReport:
    """The outcome of one analysis pass: findings plus scan metadata."""

    root: Path
    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    parse_errors: list[Finding] = field(default_factory=list)

    @property
    def all_findings(self) -> list[Finding]:
        """Findings plus parse errors, sorted for stable output."""
        return sorted(self.findings + self.parse_errors)


def analyze_paths(
    paths: Sequence[Path],
    root: Path,
    rules: Sequence[Rule] | None = None,
) -> LintReport:
    """Run ``rules`` over every Python file under ``paths``.

    The rules share a single parse of each file.  A file that fails to
    parse yields a synthetic ``E001`` finding rather than aborting the
    scan.
    """
    active = default_rules() if rules is None else tuple(rules)
    report = LintReport(root=root)
    for path in iter_python_files(paths):
        relpath = normalize_relpath(path, root)
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            report.parse_errors.append(
                Finding(
                    path=relpath,
                    line=int(exc.lineno or 1),
                    rule="E001",
                    message=f"syntax error: {exc.msg}",
                )
            )
            continue
        report.files_scanned += 1
        context = FileContext(
            path=path, relpath=relpath, source=source, tree=tree
        )
        table = suppressed_lines(source)
        for rule in active:
            if not rule.applies(relpath):
                continue
            for finding in rule.check(context):
                if not _is_suppressed(finding, table):
                    report.findings.append(finding)
    report.findings.sort()
    return report
