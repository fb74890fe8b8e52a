"""Tests for fleet job streams, traces and scenarios."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.setups import SETUPS
from repro.fleet.workload import (
    FLEET_SCENARIOS,
    FleetScenario,
    JobRequest,
    estimate_service_time,
    load_trace,
    poisson_stream,
    resolve_percent,
    save_trace,
)


class TestResolvePercent:
    def test_policy_mapping(self):
        assert resolve_percent(1, "bsp") == 100.0
        assert resolve_percent(1, "asp") == 0.0
        assert resolve_percent(1, "sync-switch") == SETUPS[1].policy_percent
        assert resolve_percent(3, "sync-switch") == 50.0

    def test_unknown_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_percent(99, "bsp")
        with pytest.raises(ConfigurationError):
            resolve_percent(1, "ssp")


class TestJobRequest:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            JobRequest(job_id=-1, arrival=0.0)
        with pytest.raises(ConfigurationError):
            JobRequest(job_id=0, arrival=-1.0)
        with pytest.raises(ConfigurationError):
            JobRequest(job_id=0, arrival=0.0, setup_index=9)
        with pytest.raises(ConfigurationError):
            JobRequest(job_id=0, arrival=0.0, n_workers=0)
        with pytest.raises(ConfigurationError):
            JobRequest(job_id=0, arrival=0.0, sync_policy="nope")

    def test_roundtrip(self):
        request = JobRequest(
            job_id=3, arrival=12.5, setup_index=2, n_workers=8,
            sync_policy="asp",
        )
        assert JobRequest.from_dict(request.to_dict()) == request

    def test_percent_property(self):
        assert JobRequest(job_id=0, arrival=0.0, sync_policy="bsp").percent == 100.0

    @pytest.mark.parametrize(
        "fields, tunable",
        [
            ({}, True),
            ({"kind": "search-trial"}, False),
            ({"sync_policy": "bsp"}, False),
            ({"percent_override": 20.0}, False),
            ({"protocols": ("bsp", "asp"), "fractions": (0.4, 0.6)}, False),
        ],
        ids=["stream", "trial", "bsp", "override", "pinned-schedule"],
    )
    def test_tunable_only_without_a_schedule_of_its_own(self, fields, tunable):
        # The one predicate the store, the search, the simulator and the
        # SLO scheduler all read: does the policy store pick the schedule?
        assert JobRequest(job_id=0, arrival=0.0, **fields).tunable is tunable


class TestScenarios:
    def test_registry_names_match(self):
        for name, scenario in FLEET_SCENARIOS.items():
            assert scenario.name == name

    def test_demand_exceeding_pool_rejected(self):
        with pytest.raises(ConfigurationError):
            FleetScenario(
                name="bad", description="", pool_size=8, n_jobs=2,
                interarrival_factor=1.0, setup_mix=(3,),  # needs 16
            )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FleetScenario(
                name="bad", description="", pool_size=0, n_jobs=2,
                interarrival_factor=1.0,
            )
        with pytest.raises(ConfigurationError):
            FleetScenario(
                name="bad", description="", pool_size=8, n_jobs=2,
                interarrival_factor=-1.0,
            )


class TestPoissonStream:
    def test_deterministic(self):
        scenario = FLEET_SCENARIOS["rush"]
        a = poisson_stream(scenario, 0.008, seed=7)
        b = poisson_stream(scenario, 0.008, seed=7)
        assert a == b

    def test_seed_changes_arrivals(self):
        scenario = FLEET_SCENARIOS["rush"]
        a = poisson_stream(scenario, 0.008, seed=0)
        b = poisson_stream(scenario, 0.008, seed=1)
        assert [r.arrival for r in a] != [r.arrival for r in b]

    def test_first_arrival_zero_and_sorted(self):
        stream = poisson_stream(FLEET_SCENARIOS["mixed"], 0.008, seed=0)
        arrivals = [request.arrival for request in stream]
        assert arrivals[0] == 0.0
        assert arrivals == sorted(arrivals)

    def test_setup_mix_round_robin(self):
        stream = poisson_stream(FLEET_SCENARIOS["mixed"], 0.008, seed=0)
        expected = [(1, 2)[i % 2] for i in range(len(stream))]
        assert [request.setup_index for request in stream] == expected
        for request in stream:
            assert request.n_workers == SETUPS[request.setup_index].n_workers

    def test_n_jobs_override_and_policy(self):
        stream = poisson_stream(
            FLEET_SCENARIOS["rush"], 0.008, seed=0, n_jobs=2, sync_policy="bsp"
        )
        assert len(stream) == 2
        assert all(request.sync_policy == "bsp" for request in stream)

    def test_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            poisson_stream(FLEET_SCENARIOS["rush"], 0.008, seed=0, n_jobs=0)
        with pytest.raises(ConfigurationError):
            poisson_stream(
                FLEET_SCENARIOS["rush"], 0.008, seed=0, sync_policy="nope"
            )


class TestEstimateServiceTime:
    def test_bsp_dominates_asp(self):
        bsp = estimate_service_time(1, 100.0, 0.008)
        asp = estimate_service_time(1, 0.0, 0.008)
        sync = estimate_service_time(1, SETUPS[1].policy_percent, 0.008)
        assert bsp > sync > asp > 0.0

    def test_scales_with_budget(self):
        assert estimate_service_time(1, 100.0, 0.05) > estimate_service_time(
            1, 100.0, 0.01
        )


class TestTraces:
    def test_roundtrip_and_sorting(self, tmp_path):
        requests = (
            JobRequest(job_id=1, arrival=5.0),
            JobRequest(job_id=0, arrival=0.0, sync_policy="asp"),
        )
        path = tmp_path / "trace.json"
        save_trace(path, requests)
        loaded = load_trace(path)
        assert [request.job_id for request in loaded] == [0, 1]
        assert set(loaded) == set(requests)

    def test_duplicate_job_ids_rejected(self, tmp_path):
        path = tmp_path / "dupes.json"
        save_trace(
            path,
            (
                JobRequest(job_id=0, arrival=0.0),
                JobRequest(job_id=0, arrival=1.0),
            ),
        )
        with pytest.raises(ConfigurationError):
            load_trace(path)

    def test_missing_or_corrupt_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_trace(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            load_trace(bad)
        empty = tmp_path / "empty.json"
        empty.write_text('{"jobs": []}', encoding="utf-8")
        with pytest.raises(ConfigurationError):
            load_trace(empty)

    @pytest.mark.parametrize("text", ["[1, 2]", '"jobs"', "null", "3"])
    def test_non_object_payload_rejected(self, tmp_path, text):
        path = tmp_path / "not-an-object.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigurationError, match="JSON object"):
            load_trace(path)

    def test_malformed_entry_rejected(self, tmp_path):
        malformed = tmp_path / "malformed.json"
        malformed.write_text(
            '{"jobs": [{"job_id": 0, "arrival": 0.0, "workers": 8}]}',
            encoding="utf-8",
        )
        with pytest.raises(ConfigurationError):
            load_trace(malformed)
