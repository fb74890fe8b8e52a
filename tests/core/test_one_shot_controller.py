"""The one-shot ``SyncSwitchController`` is its plan runner, run to the end.

No ``src/`` path calls the controller; the perf ledger's layer table
(``benchmarks/ledger/layers.py``) imports it and wraps ``run_job``.
This module pins it to the plan runner it wraps while it exists, and
goes with it.  Importing the controller here also loads it before any
test runs, as the ledger's install/restore test expects of a full
suite.
"""

from repro.core.policies import GreedyPolicy, PolicyManager, TimingPolicy
from repro.core.runtime import ElasticTrainingRun
from repro.core.runtime.controller import SyncSwitchController
from repro.distsim.cluster import ClusterSpec
from repro.distsim.stragglers import StragglerEvent, StragglerSchedule
from repro.experiments.setups import SETUPS, scaled_job


def test_job_result_is_the_plan_runners_result():
    inputs = dict(
        job=scaled_job(SETUPS[1], 0.003, 0),
        cluster_spec=ClusterSpec(n_workers=8),
        policies=PolicyManager(
            timing=TimingPolicy(0.5), straggler=GreedyPolicy()
        ),
        stragglers=StragglerSchedule(
            [StragglerEvent(worker=3, start=3.0, duration=25.0,
                            extra_latency=0.03)]
        ),
        ambient_noise=False,
        overhead_time_scale=0.003,
    )
    outcome = SyncSwitchController(**inputs).run_job()
    run = ElasticTrainingRun(**inputs)
    run.run_to_completion()
    result = run.result()
    assert outcome.result.to_dict() == result.to_dict()
    assert outcome.interventions == tuple(run.interventions)
    assert outcome.interventions, "the greedy policy never intervened"
    assert outcome.policy_description == inputs["policies"].describe()
    assert outcome.bsp_steps + outcome.async_steps == result.completed_steps
    assert 0 < outcome.bsp_steps < result.completed_steps
