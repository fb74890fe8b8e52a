"""Fleet-suite fixtures: the invariant checker guards every test here.

The checker (``repro.fleet.invariants.check_invariants``) only asserts — it
never touches clocks, RNG or allocation decisions — so arming it for
the whole package turns every existing fleet test into a probe of the
simulator's structural invariants (pool conservation, clock
monotonicity, queue/running disjointness, the preemption floor) at no
behavioural cost.
"""

import pytest


@pytest.fixture(autouse=True)
def _fleet_invariants(monkeypatch):
    monkeypatch.setenv("REPRO_FLEET_VALIDATE", "1")
