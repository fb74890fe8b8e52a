"""D006 fixture: the CLI imports one command's stack at the top."""

import argparse

from repro._lazy import resolve
from repro.fleet import FleetSimulator  # finding


def main(argv):
    from repro.experiments import ExperimentRunner  # handler entry: fine

    return argparse, resolve, FleetSimulator, ExperimentRunner
