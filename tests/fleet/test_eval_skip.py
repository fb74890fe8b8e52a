"""A fleet cell skips only evaluations no reader sees: the oracle.

An untraced fleet cell is built with ``skip_unread_evals``: it leaves
out every periodic evaluation of a job that can never fill a
convergence window, and evaluates at the final step instead
(tests/distsim/test_eval_bound.py pins the rule on single runs).  Here
the oracle is the same fleet with skipping patched off — every cell
evaluates on its full cadence — and no hash is involved, so the check
runs on every BLAS build: every ``JobRecord`` must be equal, across a
preempting stream (cells at the finish event), one whose jobs
converge (they keep every evaluation), a stream whose cells diverge
where their projections did not (voided attempts), and the datacenter
trace.  An in-fleet search reads its trials' reported accuracies, so a
tuned stream must also install the same policies and persist the same
store bytes.
"""

from __future__ import annotations

import pytest

from repro.core.runtime import ElasticTrainingRun
from repro.distsim.engines.base import TrainingSession
from repro.fleet import FleetConfig, FleetSimulator, running
from repro.fleet.policy_store import PolicyStore

#: scenario -> (scheduler, sync policy, scale, stream length).
STREAMS = {
    "rush": ("best-fit", "sync-switch", 0.002, 3),
    "mixed": ("fifo", "asp", 0.004, 3),
    "heavy": ("best-fit", "asp", 0.002, 3),
    "trace": ("fifo", "sync-switch", 0.001, 12),
}


@pytest.fixture
def fleet(monkeypatch):
    """Runs a fleet with skipping on or patched off; returns its
    summary and how many evaluations its cells computed."""
    evaluate = TrainingSession.evaluate_now
    count = [0]

    def counting(self):
        count[0] += 1
        return evaluate(self)

    monkeypatch.setattr(TrainingSession, "evaluate_now", counting)

    def full_run(**kwargs):
        return ElasticTrainingRun(**{**kwargs, "skip_unread_evals": False})

    def run(config: FleetConfig, skip: bool, store=None):
        monkeypatch.setattr(
            running, "ElasticTrainingRun", ElasticTrainingRun if skip else full_run
        )
        count[0] = 0
        return FleetSimulator(config, store=store).run(), count[0]

    return run


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("scenario", sorted(STREAMS))
def test_every_record_equals_the_full_cadence_fleet(fleet, scenario, seed):
    scheduler, policy, scale, n_jobs = STREAMS[scenario]
    config = FleetConfig(
        scenario=scenario,
        scheduler=scheduler,
        sync_policy=policy,
        seed=seed,
        scale=scale,
        n_jobs=n_jobs,
    )
    full, evaluated = fleet(config, skip=False)
    lean, skipped_to = fleet(config, skip=True)
    assert lean.jobs == full.jobs
    assert lean.to_dict() == full.to_dict()
    assert any(job.accuracy is not None for job in full.jobs)
    assert skipped_to <= evaluated
    if scenario == "trace":
        # Every trace job is too short to fill a window: one final
        # evaluation per completed cell.
        assert skipped_to < evaluated
        assert skipped_to == sum(not job.diverged for job in lean.jobs)


def test_tuned_stream_installs_the_same_policy(fleet, tmp_path):
    """A tuned trace stream: its search trials (400 steps) keep every
    evaluation, its 48-step trace jobs skip theirs."""
    config = FleetConfig(
        scenario="trace",
        scheduler="fifo",
        scale=0.002,
        n_jobs=5,
        tune=True,
    )
    stores = {skip: PolicyStore() for skip in (False, True)}
    full, evaluated = fleet(config, skip=False, store=stores[False])
    lean, skipped_to = fleet(config, skip=True, store=stores[True])
    assert any(job.kind == "search-trial" for job in full.jobs)
    assert lean.jobs == full.jobs
    assert stores[True].to_payload()["classes"]
    assert stores[True].to_payload() == stores[False].to_payload()
    files = [
        stores[skip].save(tmp_path / f"store-{skip}.json", scale=0.002)
        for skip in (False, True)
    ]
    assert files[0].read_bytes() == files[1].read_bytes()
    assert skipped_to < evaluated
