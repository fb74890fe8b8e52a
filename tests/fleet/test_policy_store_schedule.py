"""Schedule-aware policy store: payload v2 plus the tolerant v1 loader."""

import json

import pytest

from repro.cli import main

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
            fractions=(0.5, 0.5),
        )
        assert policy.protocols == ("bsp", "asp")
        assert policy.schedule_label() == "BSP -> ASP"
        with pytest.raises(TypeError):
            ClassPolicy(
                job_class=CLS, percent=50.0, target_accuracy=0.9,
                bsp_time=100.0, policy_time=60.0, search_cost=160.0,
                n_trials=2, tuned_at=0.0,
            )

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
        """Stores written before the schedule refactor (version 1) or by
        the retired percent-only search (version 2, ``"fractions":
        null``) stay readable: each row is the N=2 schedule at its
        percent."""
        for form in ("v1", "v2-null"):
            payload = populated_store().to_payload()
            (entry,) = payload["classes"]
            if form == "v1":
                payload["version"] = 1
                del entry["protocols"], entry["fractions"]
            else:
                entry.update(protocols=["bsp", "asp"], fractions=None)
            percent = entry["percent"]
            policy = PolicyStore.from_payload(payload).lookup(CLS)
            assert policy.protocols == ("bsp", "asp")
            assert policy.fractions == (percent / 100, 1 - percent / 100)
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
        policy = policy_from_search(CLS, result, tuned_at=5.0)
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
            policy_from_search(CLS, result, tuned_at=0.0)


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


def test_null_rows_warm_start_like_their_mapped_lists(tmp_path, monkeypatch):
    """A store whose rows say ``"fractions": null`` warm-starts a tuned
    stream exactly like the same store with each row's N=2 schedule
    ``[p / 100, 1 - p / 100]`` written out."""
    monkeypatch.setenv("REPRO_CACHE_DIR", "off")
    argv = ["--quiet", "fleet", "--scenario", "recurring", "--jobs", "3",
            "--scale", "0.002", "--scheduler", "fifo", "--tune"]
    cold = tmp_path / "cold.json"
    assert main([*argv, "--policy-store", str(cold),
                 "--out", str(tmp_path / "cold-out.json")]) == 0
    mapped = json.loads(cold.read_text(encoding="utf-8"))
    nulled = json.loads(cold.read_text(encoding="utf-8"))
    assert nulled["classes"]
    for entry in nulled["classes"]:
        share = entry["percent"] / 100
        assert entry["fractions"] == [share, 1 - share]
        entry["fractions"] = None
    written = {}
    for name, payload in (("mapped", mapped), ("null", nulled)):
        store, out = tmp_path / f"{name}.json", tmp_path / f"{name}-out.json"
        store.write_text(json.dumps(payload), encoding="utf-8")
        assert main([*argv, "--policy-store", str(store),
                     "--out", str(out)]) == 0
        written[name] = (out.read_bytes(), store.read_bytes())
    assert written["null"] == written["mapped"]
