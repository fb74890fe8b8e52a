"""D006 fixture: implementation modules keep top-level imports."""

from repro.rng import make_rng  # not an __init__, not cli.py: fine


def helper():
    return make_rng(0)
