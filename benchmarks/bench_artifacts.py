"""Regenerates every artifact of the registry, one benchmark per key.

Each case runs one ``ARTIFACTS`` generator (paper figure or table, or
a fleet report) through the shared cached runner (see conftest) and
saves the rendered report as ``results/<key>.txt``; ``-k fig5b``
selects one.  The timing pytest-benchmark prints is one regeneration
(single pedantic round): cold-cache cost on the first pass,
replay-from-logs cost afterwards.  It is informational — performance
is measured by the perf ledger (``benchmarks/ledger``).
"""

import pytest

from repro.experiments import ARTIFACTS


@pytest.mark.parametrize("key", sorted(ARTIFACTS))
def bench_artifact(benchmark, runner, emit, key):
    report = benchmark.pedantic(
        ARTIFACTS[key], args=(runner,), rounds=1, iterations=1, warmup_rounds=0
    )
    emit(report, key)
    assert report.rows, "artifact produced no measured rows"
