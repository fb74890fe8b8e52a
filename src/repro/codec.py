"""One declarative JSON codec for every durable format.

Trace files, policy-store files and cache blobs are all dataclasses
written as JSON objects, and each used to spell its two directions (and
its own idea of validation) by hand.  Here both directions are read off
the dataclass itself — one field table per class, built on first use:

* a field's **JSON type** is its annotation: ``int`` (``bool`` and every
  float rejected), ``float`` (any finite number), ``str``, ``bool``,
  ``dict`` / ``list`` (opaque, shape-checked only), ``X | None``,
  ``tuple[X, ...]`` (a JSON list) and the name of another codec
  dataclass (a nested object);
* a field's **range** is declared with :func:`coded` where the type is
  not enough: ``min`` / ``max`` (inclusive), ``above`` (exclusive),
  ``choices`` (a container, or a callable returning one), ``nonempty``,
  ``finite=False`` (a diverged loss), ``items`` (the same rules for the
  members of a tuple) and ``omit_none`` (``None`` is written by leaving
  the key out);
* a key an **older payload** lacks takes the dataclass default; a field
  without one is required, and a key the table does not know is an
  error.

:func:`encode` walks the fields in declaration order, so emitted bytes
are the class's field order.  :func:`decode` checks type, then range,
then unknown and missing keys, and every failure is one
``ConfigurationError`` of one shape::

    <where>: <json path>: expected <what>, got <repr>

:func:`validate` applies the same table to a constructed object (the
per-field half of a ``__post_init__``); cross-field rules stay code in
the class and raise through :func:`reject`, and :func:`decode` prefixes
them with the place the object was read from.  :func:`read_json` gives
an unreadable file the same shape.

A leaf on the warm path: stdlib plus :mod:`repro.errors`, no numpy.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, field, fields
from functools import cache
from pathlib import Path

from repro.errors import ConfigurationError

__all__ = ["coded", "decode", "encode", "read_json", "reject", "validate"]

_KINDS = {"int": int, "float": float, "str": str, "bool": bool,
          "dict": dict, "list": list}
_NOUNS = {int: "an integer", float: "a number", str: "a string",
          bool: "true or false", dict: "a JSON object", list: "a list",
          tuple: "a list"}
_INF = float("inf")


class _Absent:
    """What a missing key "got"."""

    def __repr__(self):
        return "no such key"


def coded(default=MISSING, **rule):
    """A dataclass field with a range ``rule`` (see the module docstring)."""
    return field(default=default, metadata={"codec": rule})


def reject(where: str, path: str, what: str, value) -> None:
    """Raise the one error shape (``where``/``path`` may be empty)."""
    at = ": ".join(part for part in (where, path) if part)
    raise ConfigurationError(f"{at}: expected {what}, got {value!r}")


def read_json(path, where: str):
    """The parsed JSON text of the file at ``path``, named ``where``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        # ValueError covers JSONDecodeError and non-UTF-8 bytes.
        reject(where, "", "a readable JSON file", exc)


class _Spec:
    """One field's JSON type and range, parsed from annotation + rule."""

    __slots__ = ("kind", "optional", "nested", "items", "low", "above",
                 "high", "choices", "nonempty", "finite", "omit_none",
                 "default")

    def __init__(self, annotation, rule, namespace, default=MISSING):
        self.default, self.omit_none = default, rule.get("omit_none", False)
        text = annotation.replace(" ", "")
        self.optional = text.endswith("|None")
        text = text.removesuffix("|None")
        self.items = None
        if text.startswith("tuple["):  # tuple[X,...]
            self.kind = tuple
            self.items = _Spec(text[6:-5], rule.get("items", {}), namespace)
        else:
            self.kind = _KINDS.get(text) or namespace[text]
        self.nested = self.kind not in _NOUNS
        self.low, self.above = rule.get("min"), rule.get("above")
        self.high, self.choices = rule.get("max"), rule.get("choices")
        self.nonempty = rule.get("nonempty", False)
        self.finite = rule.get("finite", True)

    def _allowed(self):
        return self.choices() if callable(self.choices) else self.choices

    def what(self) -> str:
        """The ``expected ...`` half of an error line."""
        if self.choices is not None:
            text = f"one of {tuple(self._allowed())}"
        else:
            text = _NOUNS.get(self.kind, "a JSON object")
            if self.kind is float and self.finite:
                text = "a finite number"
            if self.nonempty:
                text = text.replace(" ", " non-empty ", 1)
            bounds = ((">=", self.low), (">", self.above), ("<=", self.high))
            stated = [f"{s} {b}" for s, b in bounds if b is not None]
            if stated:
                text = f"{text} {' and '.join(stated)}"
        return f"{text} or null" if self.optional else text

    def accepts(self, value) -> bool:
        """Type, then range, of one non-nested JSON value."""
        if value is None:
            return self.optional
        kind = self.kind
        if kind is int or kind is float:
            if isinstance(value, bool) or not isinstance(
                value, int if kind is int else (int, float)
            ):
                return False
            # Chained comparison, not math.isfinite: NaN fails it and a
            # 400-digit JSON integer does not overflow it.
            if self.finite and not -_INF < value < _INF:
                return False
        elif not isinstance(value, (list, tuple) if kind is tuple else kind):
            return False
        if self.choices is not None:
            return value in self._allowed()
        return not (
            (self.nonempty and not value)
            or (self.low is not None and value < self.low)
            or (self.above is not None and value <= self.above)
            or (self.high is not None and value > self.high)
        )

    def load(self, value, where: str, path: str):
        """A JSON (or already constructed) value -> the field's value."""
        if self.nested:
            if isinstance(value, self.kind) or (value is None and self.optional):
                return value
            return decode(self.kind, value, where, path)
        if not self.accepts(value):
            reject(where, path, self.what(), value)
        if self.kind is tuple and value is not None:
            items = self.items
            if items.nested:
                value = [
                    items.load(item, where, f"{path}[{i}]")
                    for i, item in enumerate(value)
                ]
            elif not all(map(items.accepts, value)):
                i = next(i for i, v in enumerate(value) if not items.accepts(v))
                reject(where, f"{path}[{i}]", items.what(), value[i])
            return tuple(value)
        return value

    def dump(self, value):
        """The field's value -> plain JSON types."""
        if value is None:
            return None
        if self.nested:
            return encode(value)
        if self.kind is tuple:
            if self.items.kind in (int, float, str, bool):
                return list(value)
            return [self.items.dump(item) for item in value]
        return self.kind(value) if self.kind in (dict, list) else value


@cache
def _table(cls) -> tuple:
    """``(name, spec)`` per init field of ``cls``, in declaration order."""
    namespace = vars(sys.modules[cls.__module__])
    return tuple(
        (f.name, _Spec(f.type, f.metadata.get("codec", {}), namespace, f.default))
        for f in fields(cls)
        if f.init
    )


def encode(obj) -> dict:
    """``obj`` as a JSON-ready dict, keys in field order."""
    payload = {}
    for name, spec in _table(type(obj)):
        value = getattr(obj, name)
        if value is not None or not spec.omit_none:
            payload[name] = spec.dump(value)
    return payload


def decode(cls, data, where: str, path: str = ""):
    """Build a ``cls`` from parsed JSON.

    ``where`` names the source in error lines and ``path`` the place of
    ``data`` inside it (empty at the top).
    """
    if not isinstance(data, dict):
        reject(where, path, "a JSON object", data)
    prefix = f"{path}." if path else ""
    table = _table(cls)
    kwargs = {
        name: spec.load(data[name], where, prefix + name)
        for name, spec in table
        if name in data
    }
    for key in data:
        if key not in kwargs:
            reject(where, prefix + str(key), "no such key", data[key])
    for name, spec in table:
        if name not in kwargs and spec.default is MISSING:
            reject(where, prefix + name, spec.what(), _Absent())
    try:
        return cls(**kwargs)
    except ConfigurationError as exc:
        # A cross-field rule of the class: say where the object was.
        raise ConfigurationError(f"{where}: {prefix}{exc}") from None


def validate(obj) -> None:
    """Apply ``type(obj)``'s table to its fields (for ``__post_init__``)."""
    for name, spec in _table(type(obj)):
        spec.load(getattr(obj, name), "", name)
