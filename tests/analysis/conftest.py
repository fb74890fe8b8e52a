"""Shared fixtures for the ``repro lint`` analyzer tests."""

from pathlib import Path

import pytest

from helpers_lint import FIXTURES


@pytest.fixture(scope="session")
def fixtures_root() -> Path:
    """The committed fixture mini-tree (mirrors the package layout)."""
    return FIXTURES

