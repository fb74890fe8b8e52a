"""The per-file AST rules of ``repro lint`` (D001, D002, D003, D005, D006).

Each rule is grounded in a past incident in this repo (see
``docs/static_analysis.md`` for the catalog): randomness outside
:mod:`repro.rng` child streams, wall-clock reads inside the simulator,
unordered-set iteration feeding event order, engine code drawing from
shared generators instead of the per-worker session accessors, and
package ``__init__`` files or the CLI importing their layer eagerly.

All rules resolve names through the file's imports (``import numpy as
np``, ``from time import perf_counter``, ...) so aliasing cannot hide
a violation, and none of them require importing the linted file.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.framework import FileContext, Finding, Rule, register

__all__ = [
    "DirectRngRule",
    "EagerPackageImportRule",
    "EngineSharedRngRule",
    "SetIterationRule",
    "WallClockRule",
    "dotted_call_name",
    "import_aliases",
]

#: Path prefixes that make up "simulation code": modules whose control
#: flow feeds the event queue, the RNG streams or the golden hashes.
SIM_SCOPES = ("repro/distsim", "repro/fleet", "repro/core")


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted import path, from the module's imports.

    ``import numpy as np`` maps ``np -> numpy``; ``from numpy import
    random as nr`` maps ``nr -> numpy.random``; ``from time import
    perf_counter`` maps ``perf_counter -> time.perf_counter``.
    Relative imports are skipped (they cannot reach numpy/time).
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                bound = name.asname or name.name.split(".")[0]
                target = name.name if name.asname else name.name.split(".")[0]
                aliases[bound] = target
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            for name in node.names:
                if name.name == "*":
                    continue
                aliases[name.asname or name.name] = f"{module}.{name.name}"
    return aliases


def dotted_call_name(
    func: ast.expr, aliases: dict[str, str]
) -> str | None:
    """The import-resolved dotted path of a call target, if static.

    ``np.random.default_rng`` with ``np -> numpy`` resolves to
    ``numpy.random.default_rng``.  Targets whose base name is not an
    import binding return ``None``: a *local* called ``random`` must
    not be mistaken for the stdlib module.
    """
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in aliases:
        return None
    parts.append(aliases[node.id])
    return ".".join(reversed(parts))


def _import_time_statements(body: list[ast.stmt]) -> Iterator[ast.stmt]:
    """Statements that run when a module is imported: its body and the
    blocks nested in it, but no function or class body."""
    for node in body:
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        for field in ("body", "orelse", "finalbody"):
            yield from _import_time_statements(getattr(node, field, []))
        for handler in getattr(node, "handlers", []):
            yield from _import_time_statements(handler.body)


def _calls(tree: ast.Module) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


@register
class DirectRngRule(Rule):
    """D001 — randomness must flow through ``repro.rng`` child streams.

    Direct ``np.random.default_rng(...)`` / ``np.random.<dist>(...)``
    / stdlib ``random.*`` calls create streams outside the
    ``(seed, label)`` derivation, so two call sites can silently share
    (or reorder) a stream — the exact hazard PR 6 hit when casp's
    compression draws had to move onto their own child stream.
    """

    id = "D001"
    title = "direct RNG construction/draw outside repro.rng"
    exempt = ("repro/rng.py",)

    def check(self, context: FileContext) -> list[Finding]:
        aliases = import_aliases(context.tree)
        findings: list[Finding] = []
        for call in _calls(context.tree):
            dotted = dotted_call_name(call.func, aliases)
            if dotted is None:
                continue
            if dotted.startswith("numpy.random.") or dotted.startswith(
                "random."
            ):
                findings.append(
                    context.finding(
                        call,
                        self.id,
                        f"direct call to {dotted}; route randomness "
                        "through repro.rng.make_rng/child_rng so every "
                        "stream is a labelled child of the run seed",
                    )
                )
        return findings


@register
class WallClockRule(Rule):
    """D002 — simulated code never reads the wall clock.

    The simulator's only clock is ``SimClock`` (virtual seconds);
    ``time.time``/``perf_counter``/``datetime.now`` inside simulation
    or library code makes results machine- and load-dependent.  The
    benchmarks (the perf ledger among them) and observability export
    are the sanctioned consumers (allowlisted below).
    """

    id = "D002"
    title = "wall-clock read in simulated code"
    scope = ("repro/", "benchmarks/")
    exempt = (
        "repro/obs/",  # export stamps traces for external viewers
        "benchmarks/",  # pytest-benchmark timing loops
    )

    _WALL_CLOCK = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.process_time",
            "time.process_time_ns",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )

    def check(self, context: FileContext) -> list[Finding]:
        aliases = import_aliases(context.tree)
        findings: list[Finding] = []
        for call in _calls(context.tree):
            dotted = dotted_call_name(call.func, aliases)
            if dotted in self._WALL_CLOCK:
                findings.append(
                    context.finding(
                        call,
                        self.id,
                        f"wall-clock call {dotted}; simulated code must "
                        "use the virtual SimClock (wall time is allowed "
                        "only in benchmarks and obs export)",
                    )
                )
        return findings


@register
class SetIterationRule(Rule):
    """D003 — no iteration over unordered sets in simulation modules.

    Set iteration order is hash-salted across interpreter runs for
    ``str`` keys and insertion-dependent for ``int``; an event loop or
    RNG consumer fed from it breaks run-to-run bit-identity.  Wrap in
    ``sorted(...)`` or keep an ordered container.
    """

    id = "D003"
    title = "iteration over an unordered set in simulation code"
    scope = SIM_SCOPES

    #: Order-preserving constructors that launder a set into a sequence
    #: (order-insensitive consumers — sorted/len/min/max/any/all — are
    #: deliberately not flagged).
    _ORDER_SENSITIVE = frozenset({"list", "tuple", "enumerate", "iter"})

    @staticmethod
    def _is_set_expr(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )

    def check(self, context: FileContext) -> list[Finding]:
        findings: list[Finding] = []

        def flag(node: ast.AST, what: str) -> None:
            findings.append(
                context.finding(
                    node,
                    self.id,
                    f"{what} iterates an unordered set; ordering can "
                    "feed events/RNG — use sorted(...) or an ordered "
                    "container",
                )
            )

        for node in ast.walk(context.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if self._is_set_expr(node.iter):
                    flag(node.iter, "for loop")
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp,
                       ast.GeneratorExp)
            ):
                for generator in node.generators:
                    if self._is_set_expr(generator.iter):
                        flag(generator.iter, "comprehension")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in self._ORDER_SENSITIVE
                and node.args
                and self._is_set_expr(node.args[0])
            ):
                flag(node, f"{node.func.id}(...)")
        return findings


@register
class EngineSharedRngRule(Rule):
    """D005 — engines draw only via the per-worker session accessors.

    ``TrainingSession`` owns one child stream per worker per purpose
    (``time_rng``/``time_noise``/``compression_rng``); an engine that
    reaches into the private stream dicts or draws from a shared
    generator interleaves streams across workers and breaks the
    bit-identity between compressed and plain runs (the PR-6 casp
    incident).  ``base.py`` owns the private state and is exempt.
    """

    id = "D005"
    title = "engine RNG draw bypassing the per-worker session accessors"
    scope = ("repro/distsim/engines/",)
    exempt = ("repro/distsim/engines/base.py",)

    _PRIVATE_STORES = frozenset(
        {"_time_rngs", "_compression_rngs", "_data_rngs", "_time_noise",
         "_index_streams"}
    )
    _ACCESSORS = frozenset(
        {"time_rng", "compression_rng", "time_noise",
         "_time_rng", "_compression_rng"}
    )
    _DRAW_METHODS = frozenset(
        {"normal", "lognormal", "standard_normal", "uniform", "integers",
         "random", "choice", "shuffle", "permutation", "exponential",
         "poisson", "binomial", "gamma", "beta", "draw"}
    )

    def _is_accessor_call(self, node: ast.expr) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        name = (
            func.attr
            if isinstance(func, ast.Attribute)
            else func.id if isinstance(func, ast.Name) else None
        )
        return name in self._ACCESSORS

    def _blessed_names(self, scope: ast.AST) -> set[str]:
        """Local names bound from an accessor call within ``scope``."""
        blessed: set[str] = set()
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign) and self._is_accessor_call(
                node.value
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        blessed.add(target.id)
        return blessed

    def check(self, context: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(context.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in self._PRIVATE_STORES
            ):
                findings.append(
                    context.finding(
                        node,
                        self.id,
                        f"access to private session stream store "
                        f".{node.attr}; use the per-worker accessors "
                        "time_rng/time_noise/compression_rng",
                    )
                )
        functions = [
            node
            for node in ast.walk(context.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        seen: set[int] = set()
        for function in functions:
            blessed = self._blessed_names(function)
            for node in ast.walk(function):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._DRAW_METHODS
                ):
                    continue
                # ast.walk of an outer function revisits nested
                # functions; report each draw once (outermost scope,
                # whose blessings a closure inherits anyway).
                if id(node) in seen:
                    continue
                seen.add(id(node))
                receiver = node.func.value
                if self._is_accessor_call(receiver):
                    continue
                if isinstance(receiver, ast.Name) and receiver.id in blessed:
                    continue
                findings.append(
                    context.finding(
                        node,
                        self.id,
                        f"RNG draw .{node.func.attr}(...) on a shared "
                        "generator; draw via the per-worker session "
                        "accessors time_rng/compression_rng instead",
                    )
                )
        return findings


@register
class EagerPackageImportRule(Rule):
    """D006 — package ``__init__`` files and ``cli.py`` import lazily.

    Every ``repro`` command starts by importing ``repro.cli`` and the
    packages on its path; an ``__init__`` that imports its layer's
    modules, or a CLI that imports every command's stack, makes each
    command pay for all of them (the warm ``report`` spent 0.19 s of
    0.19 s that way before PR 12).  These files re-export through
    :func:`repro._lazy.lazy_exports` / resolve targets on use; every
    other module keeps ordinary top-level imports.
    """

    id = "D006"
    title = "eager repro import in a package __init__ or the CLI"

    _LAZY_HELPER = "repro._lazy"

    def applies(self, relpath: str) -> bool:
        return relpath == "repro/cli.py" or (
            relpath.startswith("repro/") and relpath.endswith("/__init__.py")
        )

    def check(self, context: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in _import_time_statements(context.tree.body):
            if isinstance(node, ast.Import):
                modules = [name.name for name in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = ["." * node.level + (node.module or "")]
            else:
                continue
            for module in modules:
                if module != self._LAZY_HELPER and (
                    module.startswith(".") or module.split(".")[0] == "repro"
                ):
                    findings.append(
                        context.finding(
                            node,
                            self.id,
                            f"top-level import of {module}; re-export "
                            "it through repro._lazy.lazy_exports (or "
                            "resolve it on use) so importing this file "
                            "stays cheap",
                        )
                    )
        return findings
