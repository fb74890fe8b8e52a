"""CI check: ``docs/cli.md`` stays in sync with the argparse parser.

Walks every subcommand and option of :func:`repro.cli.build_parser`
and fails if any is missing from the CLI reference, so a flag can not
be added (or renamed) without documenting it — and walks the
reference's command sections and flag tables the other way, so a
removed command or flag can not stay documented.  Run by the tier-1
suite and by the dedicated docs job in CI.
"""

import argparse
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

DOCS_CLI = Path(__file__).resolve().parents[2] / "docs" / "cli.md"


def subparsers(parser: argparse.ArgumentParser) -> dict:
    """The subcommand name -> subparser mapping of a parser."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    raise AssertionError("parser has no subcommands")


@pytest.fixture(scope="module")
def reference_text() -> str:
    assert DOCS_CLI.exists(), f"missing CLI reference {DOCS_CLI}"
    return DOCS_CLI.read_text(encoding="utf-8")


def test_every_subcommand_documented(reference_text):
    missing = [
        name
        for name in subparsers(build_parser())
        if f"`{name}`" not in reference_text and f"## {name}" not in reference_text
    ]
    assert not missing, f"subcommands missing from docs/cli.md: {missing}"


def test_every_flag_documented(reference_text):
    missing = []
    for name, subparser in subparsers(build_parser()).items():
        for action in subparser._actions:
            for option in action.option_strings:
                if option in ("-h", "--help"):
                    continue
                if f"`{option}" not in reference_text:
                    missing.append(f"{name} {option}")
    assert not missing, f"flags missing from docs/cli.md: {missing}"


def test_positional_arguments_documented(reference_text):
    for name, subparser in subparsers(build_parser()).items():
        for action in subparser._actions:
            if action.option_strings or isinstance(
                action, argparse._SubParsersAction
            ):
                continue
            assert f"`{action.dest}`" in reference_text, (
                f"positional argument {name} {action.dest!r} missing "
                "from docs/cli.md"
            )


def documented_commands(reference_text: str) -> dict[str, list[str]]:
    """``## <name>`` section -> the flags its table rows start with."""
    sections: dict[str, list[str]] = {}
    current = None
    for line in reference_text.splitlines():
        heading = re.match(r"## (.+)", line)
        if heading:
            current = heading.group(1).strip()
            sections[current] = []
        elif current is not None:
            row = re.match(r"\| `(--[a-z-]+)`", line)
            if row:
                sections[current].append(row.group(1))
    sections.pop("Environment knobs")
    return sections


def test_every_documented_command_and_flag_exists(reference_text):
    """The reverse direction: a stale ``## <command>`` section or flag
    row (a command or flag the parser no longer has) fails."""
    commands = subparsers(build_parser())
    stale = []
    for name, flags in documented_commands(reference_text).items():
        if name not in commands:
            stale.append(f"## {name}")
            continue
        options = {
            option
            for action in commands[name]._actions
            for option in action.option_strings
        }
        stale.extend(f"{name} {flag}" for flag in flags if flag not in options)
    assert not stale, f"docs/cli.md documents what the parser lacks: {stale}"
