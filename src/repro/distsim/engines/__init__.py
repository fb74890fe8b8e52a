"""Protocol execution engines and the self-describing engine registry.

Every engine class declares its own registry metadata as class
attributes — ``name`` (the protocol string plans use), ``precision``
(staleness-ordering rank: lower trains more precisely; the policy
layer's monotone-precision validation and the paper-order check derive
from it), ``synchronous`` (barrier-style protocols; the controller and
fleet count the "precise span" from this flag) and ``config_schema``
(the options the engine reads; a plan segment carrying any other key,
or a value outside its range, is rejected).  The semantics are two
loops, each written once: the barrier round (``barrier.py``, taking
the super-round length) and the asynchronous push loop
(``asynchronous.py``, taking an optional staleness bound and an
optional compressor).  Registering a new protocol is a class with the
attributes above and a ``run`` that chooses a loop and its parameters,
plus one entry in ``_ENGINE_CLASSES`` in
:mod:`~repro.distsim.engines.registry`; plans, policies, the schedule
search, the CLI and the docs all pick it up through the helpers
re-exported here.

Registered protocols, most precise first:

========  ===========  ====================================================
protocol  synchronous  semantics
========  ===========  ====================================================
bsp       yes          barrier every round (paper Fig. 3a)
osp       yes          2-stage sync: local accumulation + periodic barrier
ssp       no           bounded-staleness asynchrony (Ho et al.)
dssp      no           SSP with an adaptive staleness bound (Zhao et al.)
asp       no           fully asynchronous pushes (paper Fig. 3b)
casp      no           ASP with compressed pushes (QSync-style quantization)
========  ===========  ====================================================
"""

from repro._lazy import lazy_exports

__all__ = [
    "ASPEngine",
    "BSPEngine",
    "CASPEngine",
    "DSSPEngine",
    "Engine",
    "EngineSpec",
    "OSPEngine",
    "SSPEngine",
    "TrainingSession",
    "check_options",
    "engine_spec",
    "is_synchronous",
    "known_protocols",
    "make_engine",
    "precision_rank",
    "synchronous_protocols",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.distsim.engines.asynchronous": (
            "ASPEngine",
            "CASPEngine",
            "DSSPEngine",
            "SSPEngine",
        ),
        "repro.distsim.engines.barrier": ("BSPEngine", "OSPEngine"),
        "repro.distsim.engines.base": ("Engine", "TrainingSession"),
        "repro.distsim.engines.registry": (
            "ENGINE_REGISTRY",
            "EngineSpec",
            "check_options",
            "engine_spec",
            "is_synchronous",
            "known_protocols",
            "make_engine",
            "precision_rank",
            "synchronous_protocols",
        ),
    },
)
