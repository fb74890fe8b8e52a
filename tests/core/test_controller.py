"""End-to-end tests for Sync-Switch jobs run by the plan runner.

The online straggler policies are pinned by sha256 hashes of a
finished :class:`ElasticTrainingRun`'s result plus its intervention log
(``tests/data/golden_hashes.json``, section ``online``).
Like the distsim golden suite, set ``REPRO_GOLDEN_SKIP=1`` on machines
whose BLAS rounds differently.  Regenerate after an intentional numeric
change::

    PYTHONPATH=src python tests/core/test_controller.py regen
"""

import hashlib
import json
import os
import sys
from pathlib import Path

import pytest

from repro.core.policies import (
    ElasticPolicy,
    GreedyPolicy,
    PolicyManager,
    ProtocolSchedule,
    TimingPolicy,
)
from repro.core.runtime import (
    ElasticTrainingRun,
    StragglerDetector,
    ThroughputProfiler,
)
from repro.distsim.cluster import ClusterSpec
from repro.distsim.engines import synchronous_protocols
from repro.distsim.job import JobConfig, Segment
from repro.distsim.stragglers import StragglerEvent, StragglerSchedule


def job(total_steps=640, seed=0) -> JobConfig:
    return JobConfig(
        model="resnet32-sim",
        dataset="cifar10-sim",
        total_steps=total_steps,
        base_lr=0.004,
        eval_every=160,
        loss_log_every=80,
        seed=seed,
    )


def trained(policies, stragglers=None, total_steps=640, **kwargs):
    """A job run to completion: its result and its intervention log."""
    run = ElasticTrainingRun(
        job=job(total_steps=total_steps),
        cluster_spec=ClusterSpec(n_workers=8),
        policies=policies,
        stragglers=stragglers,
        ambient_noise=False,
        **kwargs,
    )
    run.run_to_completion()
    return run.result(), tuple(run.interventions)


def synchronous_steps(result) -> int:
    """Steps trained under barrier-style protocols."""
    synchronous = synchronous_protocols()
    return sum(
        record["end_step"] - record["start_step"]
        for record in result.segment_summary
        if record["protocol"] in synchronous and record["end_step"] is not None
    )


def straggler_during_bsp(
    latency=0.030, duration=25.0, workers=(3,)
) -> StragglerSchedule:
    return StragglerSchedule(
        [
            StragglerEvent(worker=worker, start=3.0, duration=duration,
                           extra_latency=latency)
            for worker in workers
        ]
    )


GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "golden_hashes.json"

#: The pinned online cases: both policies under the BSP-phase
#: straggler, the elastic policy under the 120 s one and under two
#: stragglers (two evictions, one restore), and the greedy policy on a
#: three-segment schedule (its interlude runs SSP).
ONLINE_CASES = {
    "greedy-bsp-straggler": lambda: trained(
        PolicyManager(timing=TimingPolicy(0.5), straggler=GreedyPolicy()),
        stragglers=straggler_during_bsp(),
    ),
    "elastic-bsp-straggler": lambda: trained(
        PolicyManager(timing=TimingPolicy(0.5), straggler=ElasticPolicy()),
        stragglers=straggler_during_bsp(),
    ),
    "elastic-long-straggler": lambda: trained(
        PolicyManager(timing=TimingPolicy(0.5), straggler=ElasticPolicy()),
        stragglers=straggler_during_bsp(duration=120.0),
        total_steps=960,
        overhead_time_scale=0.05,
    ),
    "elastic-two-stragglers": lambda: trained(
        PolicyManager(timing=TimingPolicy(0.5), straggler=ElasticPolicy()),
        stragglers=straggler_during_bsp(workers=(3, 5)),
    ),
    "greedy-bsp-ssp-asp": lambda: trained(
        PolicyManager(
            timing=TimingPolicy.for_schedule((0.5, 0.25, 0.25)),
            protocol=ProtocolSchedule(("bsp", "ssp", "asp")),
            straggler=GreedyPolicy(),
        ),
        stragglers=straggler_during_bsp(),
    ),
}


def outcome_hash(result, interventions) -> str:
    """Canonical sha256 of a finished job: result plus interventions."""
    payload = json.dumps(
        {
            "result": result.to_dict(),
            "interventions": list(interventions),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TestOfflinePlans:
    def test_static_bsp_job(self):
        result, _ = trained(PolicyManager(timing=TimingPolicy(1.0)))
        assert result.completed_steps >= 640
        assert result.switch_count == 0
        assert synchronous_steps(result) == result.completed_steps

    def test_switching_job_charges_switch(self):
        result, _ = trained(PolicyManager(timing=TimingPolicy(0.25)))
        assert result.switch_count == 1
        bsp_steps = synchronous_steps(result)
        assert bsp_steps == pytest.approx(160, abs=8)
        assert result.completed_steps - bsp_steps == pytest.approx(480, abs=8)

    def test_policy_description_attached(self):
        result, _ = trained(PolicyManager(timing=TimingPolicy(0.0625)))
        assert result.plan == "bsp:6.25% -> asp:93.75%"

    def test_intervention_free_without_online_policy(self):
        _, interventions = trained(
            PolicyManager(timing=TimingPolicy(0.25)),
            stragglers=straggler_during_bsp(),
        )
        assert interventions == ()


class TestGreedyPolicy:
    def test_switches_to_asp_on_detection(self):
        result, interventions = trained(
            PolicyManager(
                timing=TimingPolicy(0.5), straggler=GreedyPolicy()
            ),
            stragglers=straggler_during_bsp(),
        )
        kinds = [entry["kind"] for entry in interventions]
        assert "greedy-switch-to-asp" in kinds
        assert result.switch_count >= 2  # round trip + planned switch

    def test_switches_back_after_clearance(self):
        result, interventions = trained(
            PolicyManager(
                timing=TimingPolicy(0.5), straggler=GreedyPolicy()
            ),
            stragglers=straggler_during_bsp(),
        )
        kinds = [entry["kind"] for entry in interventions]
        assert "greedy-switch-back-to-bsp" in kinds
        # BSP budget eventually fulfilled despite the interlude
        assert synchronous_steps(result) >= 0.5 * 640 - 8

    def test_no_interventions_without_stragglers(self):
        _, interventions = trained(
            PolicyManager(timing=TimingPolicy(0.5), straggler=GreedyPolicy())
        )
        assert interventions == ()

    def test_interlude_at_exhausted_budget_is_free(self):
        """Regression: no switch may be charged (or logged) once the job
        is already at its step budget."""
        policy = GreedyPolicy()
        run = ElasticTrainingRun(
            job=job(),
            cluster_spec=ClusterSpec(n_workers=8),
            policies=PolicyManager(timing=TimingPolicy(0.5), straggler=policy),
            ambient_noise=False,
        )
        session = run.session
        bsp = Segment("bsp", 0.5)
        asp = Segment("asp", 0.5)
        run.trainer.run_segment(session, bsp, run.job.total_steps)
        assert session.step >= run.job.total_steps
        overhead_before = session.telemetry.total_overhead
        finished = run._greedy_interlude(
            bsp,
            asp,
            ThroughputProfiler(batch_size=run.job.batch_size, window=5),
            StragglerDetector(
                consecutive=policy.detection_windows,
                clear_windows=policy.clear_windows,
            ),
            [3],
        )
        assert finished is True
        assert run.interventions == []
        assert session.telemetry.total_overhead == overhead_before
        assert session.telemetry.switch_count == 0


class TestOnlineGolden:
    @pytest.mark.parametrize("name", sorted(ONLINE_CASES))
    def test_committed_online_hash(self, name):
        if os.environ.get("REPRO_GOLDEN_SKIP", "") not in ("", "0"):
            pytest.skip("REPRO_GOLDEN_SKIP set (BLAS float bits differ here)")
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        result, interventions = ONLINE_CASES[name]()
        assert interventions, f"{name}: the policy never intervened"
        assert outcome_hash(result, interventions) == (
            golden["online"]["hashes"][name]
        ), (
            f"{name}: the job changed vs the committed golden hash — "
            "the online stage is no longer bit-identical"
        )


class TestElasticPolicy:
    def test_evicts_and_restores(self):
        _, interventions = trained(
            PolicyManager(
                timing=TimingPolicy(0.5), straggler=ElasticPolicy()
            ),
            stragglers=straggler_during_bsp(),
        )
        kinds = [entry["kind"] for entry in interventions]
        assert "elastic-evict" in kinds
        assert "elastic-restore" in kinds
        evicted = [
            entry["worker"]
            for entry in interventions
            if entry["kind"] == "elastic-evict"
        ]
        assert evicted == [3]

    def test_completes_full_budget(self):
        result, _ = trained(
            PolicyManager(
                timing=TimingPolicy(0.5), straggler=ElasticPolicy()
            ),
            stragglers=straggler_during_bsp(),
        )
        assert result.completed_steps >= 640

    def test_faster_than_baseline_under_long_straggler(self):
        schedule = straggler_during_bsp(duration=120.0)
        baseline, _ = trained(
            PolicyManager(timing=TimingPolicy(0.5)),
            stragglers=schedule,
            total_steps=960,
            overhead_time_scale=0.05,
        )
        elastic, _ = trained(
            PolicyManager(timing=TimingPolicy(0.5), straggler=ElasticPolicy()),
            stragglers=schedule,
            total_steps=960,
            overhead_time_scale=0.05,
        )
        assert elastic.total_time < baseline.total_time


def _regenerate() -> None:
    hashes = {
        name: outcome_hash(*ONLINE_CASES[name]())
        for name in sorted(ONLINE_CASES)
    }
    # Read-modify-write: the distsim golden suite owns the other keys.
    payload = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    payload["online"] = {"hashes": hashes}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
    for name, value in hashes.items():
        print(f"  {name}: {value}")


if __name__ == "__main__":
    if len(sys.argv) == 2 and sys.argv[1] == "regen":
        _regenerate()
    else:
        print(__doc__)
        sys.exit(2)
