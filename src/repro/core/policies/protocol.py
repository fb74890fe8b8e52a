"""Protocol policy: which synchronization protocols, in what order.

Paper Section IV-A: start with BSP (the precise protocol) and switch to
ASP (the fast one).  The empirical analysis (Fig. 5a) and theoretical
explanation (Fig. 6/7, Remarks A.1-A.3) both show the reverse order is
harmful: stale gradients early in training — when gradients are large
and the learning rate is high — destabilise the run, and time spent in
early ASP is wasted even if BSP follows.

Sync-Switch is agnostic to the concrete protocols (Section VI), so the
policy layer derives everything from the engine registry
(:mod:`repro.distsim.engines`): :class:`ProtocolSchedule` is an ordered
sequence of N protocols whose precision must decrease monotonically
over the run (the same Remark A.3 argument applied segment-wise).  Its
default, the pair ``("bsp", "asp")``, is the paper's policy; an
``allow_reversed`` escape hatch serves the Fig. 5a ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.distsim.engines import known_protocols, precision_rank
from repro.errors import ConfigurationError

__all__ = ["ProtocolSchedule"]


def _check_known(protocol: str) -> None:
    if protocol not in known_protocols():
        raise ConfigurationError(
            f"unknown protocol {protocol!r}; known: {known_protocols()}"
        )


@dataclass(frozen=True)
class ProtocolSchedule:
    """An ordered sequence of N protocols for an N-segment plan.

    Precision must decrease strictly across the sequence (each switch
    trades precision for speed, never the other way), adjacent
    duplicates are rejected, and a single-protocol schedule expresses
    the static baselines.  The two-protocol default is the paper's
    policy pair.
    """

    protocols: tuple[str, ...] = ("bsp", "asp")

    def __post_init__(self):
        protocols = tuple(self.protocols)
        object.__setattr__(self, "protocols", protocols)
        if not protocols:
            raise ConfigurationError(
                "a protocol schedule needs at least one protocol"
            )
        for protocol in protocols:
            _check_known(protocol)
        for earlier, later in zip(protocols, protocols[1:]):
            if earlier == later:
                raise ConfigurationError(
                    f"adjacent duplicate protocol {earlier!r} in schedule; "
                    "merge the segments instead"
                )
        if not self.follows_paper_order():
            raise ConfigurationError(
                f"schedule {' -> '.join(protocols)} runs a less precise "
                "protocol before a more precise one; the paper's protocol "
                "policy (Section IV-A, Remark A.3) requires monotonically "
                "decreasing precision. Use allow_reversed() only for "
                "ablation studies."
            )

    def follows_paper_order(self) -> bool:
        """True when precision decreases strictly across the sequence."""
        ranks = [precision_rank(protocol) for protocol in self.protocols]
        return all(a < b for a, b in zip(ranks, ranks[1:]))

    def describe(self) -> str:
        """Human-readable sequence, e.g. ``bsp -> ssp -> asp``."""
        return " -> ".join(self.protocols)

    @classmethod
    def allow_reversed(cls, protocols) -> "ProtocolSchedule":
        """Escape hatch for the ASP->BSP ablation (Fig. 5a).

        Bypasses the precision-order validation so the harness can
        reproduce the paper's negative result.
        """
        sequence = tuple(protocols)
        for protocol in sequence:
            _check_known(protocol)
        schedule = object.__new__(cls)
        object.__setattr__(schedule, "protocols", sequence)
        return schedule
