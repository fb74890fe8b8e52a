"""The engine registry: one :class:`EngineSpec` per protocol engine class.

Built from the engine classes' own declarations (see the package
docstring); :mod:`repro.distsim.engines` re-exports everything here.
"""

from dataclasses import dataclass, field

from repro.distsim.engines.asynchronous import (
    DEFAULT_LOWER_BOUND,
    DEFAULT_UPPER_BOUND,
    ASPEngine,
    CASPEngine,
    DSSPEngine,
    SSPEngine,
)
from repro.distsim.engines.barrier import BSPEngine, OSPEngine
from repro.distsim.engines.base import Engine
from repro.errors import ConfigurationError

__all__ = [
    "ENGINE_REGISTRY",
    "EngineSpec",
    "check_options",
    "engine_spec",
    "is_synchronous",
    "known_protocols",
    "make_engine",
    "precision_rank",
    "synchronous_protocols",
]


@dataclass(frozen=True)
class EngineSpec:
    """Registry entry derived from an engine class's declarations."""

    name: str
    factory: type
    precision: int
    synchronous: bool
    config_schema: dict[str, str] = field(default_factory=dict)
    summary: str = ""


def _spec(cls: type) -> EngineSpec:
    doc = (cls.__doc__ or "").strip().splitlines()
    return EngineSpec(
        name=cls.name,
        factory=cls,
        precision=int(cls.precision),
        synchronous=bool(cls.synchronous),
        config_schema=dict(getattr(cls, "config_schema", {})),
        summary=doc[0] if doc else "",
    )


_ENGINE_CLASSES = (
    BSPEngine,
    OSPEngine,
    SSPEngine,
    DSSPEngine,
    ASPEngine,
    CASPEngine,
)

#: protocol name -> :class:`EngineSpec`, ordered most precise first.
ENGINE_REGISTRY: dict[str, EngineSpec] = {
    spec.name: spec
    for spec in sorted(
        (_spec(cls) for cls in _ENGINE_CLASSES),
        key=lambda spec: spec.precision,
    )
}

#: Cached name tuple (registry order: most precise first).
_KNOWN = tuple(ENGINE_REGISTRY)

#: Cached barrier-style protocol names (the fleet's "precise span").
_SYNCHRONOUS = frozenset(
    spec.name for spec in ENGINE_REGISTRY.values() if spec.synchronous
)


def known_protocols() -> tuple[str, ...]:
    """Registered protocol names, most precise first."""
    return _KNOWN


def engine_spec(protocol: str) -> EngineSpec:
    """The registry entry for ``protocol``."""
    spec = ENGINE_REGISTRY.get(protocol)
    if spec is None:
        raise ConfigurationError(
            f"unknown protocol {protocol!r}; known: {sorted(ENGINE_REGISTRY)}"
        )
    return spec


#: Smallest value each integer option takes.
_OPTION_MINIMUM = {
    "batch_size": 1, "sync_period": 1, "adapt_every": 1,
    "staleness_bound": 0, "lower_bound": 0, "upper_bound": 0,
}


def check_options(protocol: str, options: dict) -> None:
    """Reject an unknown ``protocol``, option keys its engine does not
    read and option values outside their range.

    An engine looks its options up by name and ignores the rest, so a
    misspelt or misplaced key would otherwise train with the default
    without a word — and an out-of-range value would stall the run
    (a negative staleness bound admits no worker) or never end it
    (``adapt_every`` 0 trains in chunks of no steps).
    """
    schema = engine_spec(protocol).config_schema
    for key in options:
        if key in schema:
            continue
        takers = [
            repr(name)
            for name, spec in ENGINE_REGISTRY.items()
            if key in spec.config_schema
        ]
        hint = f"; use protocol {' or '.join(takers)}" if takers else ""
        raise ConfigurationError(
            f"engine {protocol!r} does not take option {key!r} "
            f"(known: {', '.join(sorted(schema))}){hint}"
        )
    for key, minimum in _OPTION_MINIMUM.items():
        if key in options and int(options[key]) < minimum:
            raise ConfigurationError(
                f"engine {protocol!r} option {key!r} is {options[key]!r}; "
                f"it must be >= {minimum}"
            )
    if "lower_bound" in schema:
        lower = options.get("lower_bound", DEFAULT_LOWER_BOUND)
        upper = options.get("upper_bound", DEFAULT_UPPER_BOUND)
        if int(upper) < int(lower):
            raise ConfigurationError(
                f"engine {protocol!r} option 'upper_bound' is {upper!r}; "
                f"it must be >= 'lower_bound' ({lower!r})"
            )


def precision_rank(protocol: str) -> int:
    """Staleness-ordering rank of ``protocol`` (lower = more precise)."""
    return engine_spec(protocol).precision


def is_synchronous(protocol: str) -> bool:
    """Whether ``protocol`` is barrier-style (BSP-family semantics)."""
    return engine_spec(protocol).synchronous


def synchronous_protocols() -> frozenset[str]:
    """Names of the registered barrier-style protocols."""
    return _SYNCHRONOUS


def make_engine(protocol: str) -> Engine:
    """Instantiate the engine registered for ``protocol``."""
    return engine_spec(protocol).factory()
