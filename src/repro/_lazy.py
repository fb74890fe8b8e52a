"""The one place ``repro`` defers an import.

Start-up cost is dominated by imports a command never uses, so three
seams load their collaborators on first use and every other module
keeps ordinary top-level imports (``docs/architecture.md``, "Import
rule"; lint rule D006 enforces it):

* package ``__init__`` files re-export their layer's public names
  through :func:`lazy_exports` (PEP 562 ``__getattr__``/``__dir__``);
* the CLI's command table and the ``ARTIFACTS`` registry hold
  ``"module"`` / ``"module:function"`` targets that :func:`resolve`
  imports when a command or artifact is used;
* the experiment executor resolves its cell function the same way on
  the first cache miss.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterator, Mapping
from importlib import import_module

__all__ = ["LazyTable", "lazy_exports", "resolve"]


def lazy_exports(
    package: str, exports: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for a package that re-exports lazily.

    ``exports`` maps each defining module to the public names it
    supplies — the shape of the ``from module import (a, b)`` block it
    replaces.  A name is looked up in its module on every access, never
    copied into the package, so ``from package import name``,
    ``package.name`` and ``from package import *`` (with ``__all__``)
    all see what the defining module holds at that moment.
    """
    origin = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> object:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        return getattr(import_module(module), name)

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *origin})

    return __getattr__, __dir__


def resolve(target: str) -> object:
    """Import what ``"module"`` or ``"module:attribute"`` names."""
    module, _, attribute = target.partition(":")
    loaded = import_module(module)
    return getattr(loaded, attribute) if attribute else loaded


class LazyTable(Mapping):
    """Read-only ``name -> object`` registry over ``"module:attribute"``
    targets: iteration and membership touch only the names, a lookup
    imports the target's module."""

    def __init__(self, targets: dict[str, str]):
        self.targets = targets

    def __getitem__(self, name: str) -> object:
        return resolve(self.targets[name])

    def __contains__(self, name: object) -> bool:
        return name in self.targets

    def __iter__(self) -> Iterator[str]:
        return iter(self.targets)

    def __len__(self) -> int:
        return len(self.targets)
