"""D004 — cache-key completeness for the request dataclasses.

The experiment cache (PR 1) identifies a cell by hashing a payload
built in the request's ``key()`` method.  A field added to a request
dataclass but not to that payload silently *aliases* cache entries:
two different runs map to the same key and one replays the other's
result — the drift PRs 5 and 7 each patched by hand when ``resim``
and ``trace_detail`` grew into :class:`FleetRunRequest`.

This rule is **semantic**, not syntactic: the target class is loaded
with :mod:`importlib` and its field list comes from
:func:`dataclasses.fields` (so inherited and default-factory fields
count), then the ``key()`` method's *source* is parsed to collect
every ``self.<attr>`` read.  Any field never read by ``key()`` is a
finding, anchored at the field's definition line — where an inline
``# repro-lint: disable=D004`` marks a deliberately keyless field
(e.g. ``validate``, which can never change a summary).
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import textwrap
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.framework import (
    Finding,
    ProjectRule,
    normalize_relpath,
    register,
    suppressed_lines,
)

__all__ = [
    "CacheKeyCompletenessRule",
    "CacheKeyTarget",
    "DEFAULT_TARGETS",
    "check_class",
]


@dataclass(frozen=True)
class CacheKeyTarget:
    """One dataclass whose ``key()`` must consume every field."""

    module: str
    class_name: str


#: The request dataclasses whose cache keys gate result identity.
DEFAULT_TARGETS: tuple[CacheKeyTarget, ...] = (
    CacheKeyTarget("repro.experiments.executor", "RunRequest"),
    CacheKeyTarget("repro.experiments.fleet", "FleetRunRequest"),
    CacheKeyTarget("repro.experiments.fleet", "FleetShardRequest"),
)


def _self_attribute_reads(function: object) -> set[str] | None:
    """Attribute names read off the first parameter of ``function``.

    Returns ``None`` when the source is unavailable (C extension,
    interactively defined class) — the caller reports that instead of
    guessing.
    """
    try:
        source = textwrap.dedent(inspect.getsource(function))  # type: ignore[arg-type]
        tree = ast.parse(source)
    except (OSError, TypeError, SyntaxError):
        return None
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.args.args:
                return set()
            self_name = node.args.args[0].arg
            return {
                inner.attr
                for inner in ast.walk(node)
                if isinstance(inner, ast.Attribute)
                and isinstance(inner.value, ast.Name)
                and inner.value.id == self_name
            }
    return None


def _field_location(cls: type, name: str) -> tuple[Path, int] | None:
    """(file, line) where field ``name`` is declared, searching the MRO."""
    for klass in cls.__mro__:
        try:
            lines, start = inspect.getsourcelines(klass)
            filename = inspect.getsourcefile(klass)
        except (OSError, TypeError):
            continue
        if filename is None:
            continue
        try:
            tree = ast.parse(textwrap.dedent("".join(lines)))
        except SyntaxError:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for statement in node.body:
                target: ast.expr | None = None
                if isinstance(statement, ast.AnnAssign):
                    target = statement.target
                elif isinstance(statement, ast.Assign) and statement.targets:
                    target = statement.targets[0]
                if isinstance(target, ast.Name) and target.id == name:
                    return Path(filename), start + statement.lineno - 1
    return None


def _relpath(path: Path, root: Path) -> str:
    try:
        return normalize_relpath(path, root)
    except ValueError:
        return path.as_posix()


def check_class(cls: type, root: Path) -> list[Finding]:
    """Findings for one dataclass whose ``key()`` must be complete."""
    qualname = f"{cls.__module__}.{cls.__qualname__}"
    try:
        class_file = Path(inspect.getsourcefile(cls) or "")
    except TypeError:
        class_file = Path("")
    anchor_path = _relpath(class_file, root) if class_file.name else qualname
    if not dataclasses.is_dataclass(cls):
        return [
            Finding(
                path=anchor_path,
                line=1,
                rule="D004",
                message=f"{qualname} is not a dataclass; the cache-key "
                "completeness check needs dataclass field metadata",
            )
        ]
    key_fn = getattr(cls, "key", None)
    if key_fn is None:
        return [
            Finding(
                path=anchor_path,
                line=1,
                rule="D004",
                message=f"{qualname} has no key() method to "
                "define its cache identity",
            )
        ]
    consumed = _self_attribute_reads(key_fn)
    if consumed is None:
        return [
            Finding(
                path=anchor_path,
                line=1,
                rule="D004",
                message=f"source of {qualname}.key() is "
                "unavailable; cannot verify cache-key completeness",
            )
        ]
    findings: list[Finding] = []
    suppression_cache: dict[Path, dict[int, frozenset[str] | None]] = {}
    for field in dataclasses.fields(cls):
        if field.name in consumed:
            continue
        location = _field_location(cls, field.name)
        if location is not None:
            field_file, line = location
            table = suppression_cache.get(field_file)
            if table is None:
                table = suppressed_lines(
                    field_file.read_text(encoding="utf-8")
                )
                suppression_cache[field_file] = table
            if line in table:
                suppressed = table[line]
                if suppressed is None or "D004" in suppressed:
                    continue
            path, anchor = _relpath(field_file, root), line
        else:
            path, anchor = anchor_path, 1
        findings.append(
            Finding(
                path=path,
                line=anchor,
                rule="D004",
                message=f"dataclass field '{field.name}' of {qualname} is "
                "not consumed by key(); a run varying it would "
                "alias another run's cache entry — extend the key payload "
                "or mark the field '# repro-lint: disable=D004'",
            )
        )
    return findings


@register
class CacheKeyCompletenessRule(ProjectRule):
    """D004 — every request-dataclass field must reach its cache key."""

    id = "D004"
    title = "cache-key payload misses a dataclass field"

    def __init__(
        self, targets: tuple[CacheKeyTarget, ...] = DEFAULT_TARGETS
    ) -> None:
        self.targets = targets

    def check_project(self, root: Path) -> list[Finding]:
        findings: list[Finding] = []
        for target in self.targets:
            try:
                module = importlib.import_module(target.module)
                cls = getattr(module, target.class_name)
            except (ImportError, AttributeError) as exc:
                findings.append(
                    Finding(
                        path=f"{target.module}:{target.class_name}",
                        line=1,
                        rule=self.id,
                        message=f"cannot load cache-key target: {exc}",
                    )
                )
                continue
            findings.extend(check_class(cls, root))
        return findings
