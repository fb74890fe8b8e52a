"""Drift tests for the tables that replaced eager imports.

A lazy table is a list of names kept apart from the code it points at,
so each one is checked against what it names: every package's
``__all__`` against its lazy exports, every ``ARTIFACTS`` and command
target against the module it imports, and the per-command parsers
``main`` builds against the full ``build_parser()``.
"""

import argparse
import importlib

import pytest

from repro.cli import COMMANDS, build_parser
from repro.experiments import ARTIFACTS

LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.core.policies",
    "repro.core.runtime",
    "repro.core.search",
    "repro.distsim",
    "repro.distsim.engines",
    "repro.experiments",
    "repro.fleet",
    "repro.mlcore",
    "repro.obs",
)


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_every_exported_name_resolves(name):
    package = importlib.import_module(name)
    listed = dir(package)
    for export in package.__all__:
        assert getattr(package, export) is not None, export
        assert export in listed, export
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(package.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name


def test_lazy_names_track_their_defining_module(monkeypatch):
    import repro.fleet
    import repro.fleet.workload

    sentinel = object()
    monkeypatch.setattr(repro.fleet.workload, "load_trace", sentinel)
    assert repro.fleet.load_trace is sentinel


def test_every_artifact_target_is_a_callable():
    for name in ARTIFACTS:
        assert callable(ARTIFACTS[name]), name
    assert "fig5b" in ARTIFACTS and "fig99" not in ARTIFACTS
    with pytest.raises(KeyError):
        ARTIFACTS["fig99"]


def test_every_command_module_has_configure_and_run():
    for name, (help_line, module) in COMMANDS.items():
        loaded = importlib.import_module(module)
        assert help_line
        assert callable(loaded.configure) and callable(loaded.run), name


def subparsers(parser: argparse.ArgumentParser) -> dict:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    raise AssertionError("parser has no subcommands")


def described(parser: argparse.ArgumentParser) -> list[tuple]:
    return [
        (
            type(action).__name__,
            tuple(action.option_strings),
            action.dest,
            action.nargs,
            action.const,
            action.default,
            action.type,
            None if action.choices is None else list(action.choices),
            action.required,
            action.help,
            action.metavar,
        )
        for action in parser._actions
    ]


@pytest.mark.parametrize("name", COMMANDS)
def test_single_command_parser_matches_the_full_parser(name):
    """What ``main`` builds for one command is that command's slice of
    ``build_parser()``; the commands it skipped are listed but bare."""
    full = subparsers(build_parser())
    assert list(full) == list(COMMANDS)
    single = subparsers(build_parser(only=name))
    assert list(single) == list(full)
    assert described(single[name]) == described(full[name])
    assert single[name].format_help() == full[name].format_help()
    for other, parser in single.items():
        if other != name:
            assert [a.dest for a in parser._actions] == ["help"]
    assert (
        build_parser(only=name).format_help() == build_parser().format_help()
    )
