"""Schedule-aware policy store: payload v2 plus the tolerant v1 loader."""

import pytest

from repro.core.search import ScheduleSearch, SearchConfig
from repro.errors import FleetError
from repro.fleet.policy_store import (
    STORE_FORMAT_VERSION,
    ClassPolicy,
    JobClass,
    PolicyStore,
    policy_from_search,
)
from repro.fleet.workload import JobRequest

CLS = JobClass(setup_index=1, n_workers=8)


def schedule_policy(
    protocols=("bsp", "ssp", "asp"), fractions=(0.25, 0.25, 0.5)
) -> ClassPolicy:
    return ClassPolicy(
        job_class=CLS,
        percent=fractions[0] * 100.0,
        target_accuracy=0.9,
        bsp_time=100.0,
        policy_time=60.0,
        search_cost=160.0,
        n_trials=2,
        tuned_at=0.0,
        protocols=tuple(protocols),
        fractions=tuple(fractions),
    )


def populated_store(policy=None) -> PolicyStore:
    store = PolicyStore()
    store.begin_search(CLS)
    store.install(policy if policy is not None else schedule_policy())
    return store


class TestClassPolicySchedule:
    def test_defaults_are_the_two_phase_pair(self):
        policy = ClassPolicy(
            job_class=CLS, percent=50.0, target_accuracy=0.9, bsp_time=100.0,
            policy_time=60.0, search_cost=160.0, n_trials=2, tuned_at=0.0,
        )
        assert policy.protocols == ("bsp", "asp")
        assert policy.fractions is None
        assert policy.schedule_label() == "BSP -> ASP"

    def test_schedule_label_names_all_segments(self):
        assert schedule_policy().schedule_label() == "BSP -> SSP -> ASP"

    def test_report_carries_schedule_columns(self):
        row = populated_store().report()[0]
        assert row["schedule"] == "BSP -> SSP -> ASP"
        assert row["fractions"] == [0.25, 0.25, 0.5]


class TestPayloadV2:
    def test_round_trip_preserves_schedule(self):
        store = populated_store()
        payload = store.to_payload()
        assert payload["version"] == STORE_FORMAT_VERSION == 2
        entry = payload["classes"][0]
        assert entry["protocols"] == ["bsp", "ssp", "asp"]
        assert entry["fractions"] == [0.25, 0.25, 0.5]
        again = PolicyStore.from_payload(payload)
        policy = again.lookup(CLS)
        assert policy.protocols == ("bsp", "ssp", "asp")
        assert policy.fractions == (0.25, 0.25, 0.5)
        assert again.report() == store.report()

    def test_v1_payload_loads_with_two_phase_defaults(self):
        """Stores written before the schedule refactor stay readable."""
        payload = populated_store().to_payload()
        payload["version"] = 1
        for entry in payload["classes"]:
            del entry["protocols"]
            del entry["fractions"]
        policy = PolicyStore.from_payload(payload).lookup(CLS)
        assert policy.protocols == ("bsp", "asp")
        assert policy.fractions is None
        assert policy.schedule_label() == "BSP -> ASP"

    def test_future_version_still_rejected(self):
        from repro.errors import ConfigurationError

        payload = populated_store().to_payload()
        payload["version"] = 99
        with pytest.raises(ConfigurationError):
            PolicyStore.from_payload(payload)

    def test_file_round_trip(self, tmp_path):
        store = populated_store()
        path = store.save(tmp_path / "store.json")
        assert PolicyStore.load(path).to_payload() == store.to_payload()


class TestPolicyFromScheduleSearch:
    def run_search(self):
        def trial(protocols, fractions, run):
            accuracy = 0.92 if fractions[0] >= 0.25 else 0.80
            return accuracy, 50.0 + 100.0 * fractions[0]

        config = SearchConfig(
            beta=0.01, max_settings=3, runs_per_setting=1, bsp_runs=2
        )
        return ScheduleSearch(
            trial, config, sequences=(("bsp", "ssp", "asp"),)
        ).search()

    def test_installable_policy_records_full_schedule(self):
        result = self.run_search()
        policy = policy_from_search(
            CLS, result, tuned_at=5.0, percent_only=False
        )
        assert policy.protocols == ("bsp", "ssp", "asp")
        assert policy.fractions == result.fractions
        assert policy.percent == pytest.approx(result.fractions[0] * 100.0)
        assert policy.search_cost == pytest.approx(result.search_time)
        store = PolicyStore()
        store.begin_search(CLS)
        store.install(policy)
        assert store.lookup(CLS).fractions == result.fractions

    def test_requires_opener_runs(self):
        result = self.run_search()
        result.trials = [
            trial for trial in result.trials if trial.fractions[0] != 1.0
        ]
        with pytest.raises(FleetError):
            policy_from_search(
                CLS, result, tuned_at=0.0, percent_only=False
            )


class TestPredictServiceWithSchedules:
    def test_request_with_own_schedule_bypasses_tuned_estimate(self):
        store = populated_store()
        tuned = JobRequest(
            job_id=0, arrival=0.0, sync_policy="sync-switch"
        )
        pinned = JobRequest(
            job_id=1,
            arrival=0.0,
            sync_policy="sync-switch",
            protocols=("bsp", "asp"),
            fractions=(0.5, 0.5),
        )
        assert store.predict_service(tuned, 0.008) == pytest.approx(60.0)
        assert store.predict_service(pinned, 0.008) != pytest.approx(60.0)
