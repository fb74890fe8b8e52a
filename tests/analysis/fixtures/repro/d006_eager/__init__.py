"""D006 fixture: a package ``__init__`` that imports its layer eagerly."""

import json  # stdlib: fine

import repro.rng  # finding
from repro._lazy import lazy_exports  # the shared helper: fine
from repro.d006_eager.impl import helper  # finding

from . import impl  # finding (relative imports reach repro too)

try:
    from repro.d006_eager import optional  # finding: still import time
except ImportError:
    optional = None


def late():
    from repro.d006_eager.impl import helper as resolved  # on use: fine

    return resolved
