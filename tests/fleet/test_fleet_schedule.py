"""Fleet end-to-end coverage for N-segment protocol schedules."""

import pytest

from repro.errors import ConfigurationError
from repro.fleet import FleetConfig, FleetSimulator, PolicyStore
from repro.fleet.workload import JobRequest


class TestConfigValidation:
    def test_fractions_without_protocols_rejected(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(fractions=(0.5, 0.5))

    def test_protocols_without_fractions_needs_tune(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(protocols=("bsp", "ssp", "asp"))
        FleetConfig(protocols=("bsp", "ssp", "asp"), tune=True)

    def test_reversed_schedule_rejected(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(protocols=("asp", "bsp"), tune=True)

    def test_fraction_vector_checked(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(
                protocols=("bsp", "ssp", "asp"), fractions=(0.5, 0.5)
            )
        with pytest.raises(ConfigurationError):
            FleetConfig(
                protocols=("bsp", "asp"), fractions=(0.7, 0.7)
            )


class TestFixedScheduleStream:
    def test_every_stream_job_trains_the_schedule(self):
        summary = FleetSimulator(
            FleetConfig(
                scenario="rush",
                scheduler="fifo",
                sync_policy="sync-switch",
                seed=0,
                scale=0.008,
                n_jobs=3,
                protocols=("bsp", "ssp", "asp"),
                fractions=(0.25, 0.25, 0.5),
            )
        ).run()
        assert len(summary.jobs) == 3
        for record in summary.jobs:
            assert record.outcome == "completed"
            assert record.percent == pytest.approx(25.0)


class TestTunedScheduleStream:
    def test_search_installs_full_schedule_policy(self):
        store = PolicyStore()
        summary = FleetSimulator(
            FleetConfig(
                scenario="rush",
                scheduler="fifo",
                sync_policy="sync-switch",
                seed=0,
                scale=0.008,
                n_jobs=3,
                tune=True,
                protocols=("bsp", "ssp", "asp"),
            ),
            store=store,
        ).run()
        assert summary.n_search_jobs > 0
        policies = store.report()
        assert policies, "the recurring class must end up tuned"
        for row in policies:
            assert row["schedule"] == "BSP -> SSP -> ASP"
            assert len(row["fractions"]) == 3
            assert sum(row["fractions"]) == pytest.approx(1.0)

    def test_two_phase_config_unchanged_by_default(self):
        """No protocols given is the ``("bsp", "asp")`` schedule search:
        the same summary and the same stored policies, seed by seed."""

        def tuned(seed, **schedule):
            store = PolicyStore()
            summary = FleetSimulator(
                FleetConfig(
                    scenario="recurring", scheduler="fifo",
                    sync_policy="sync-switch", seed=seed, scale=0.002,
                    n_jobs=3, tune=True, **schedule,
                ),
                store=store,
            ).run()
            return summary.to_dict(), store.to_payload()

        for seed in (0, 1):
            default = tuned(seed)
            assert default == tuned(seed, protocols=("bsp", "asp"))
            summary, payload = default
            assert summary["tuning"] and payload["classes"]
            for row in summary["tuning"]:
                assert row["schedule"] == "BSP -> ASP"
                assert row["fractions"] == [
                    row["percent"] / 100, 1 - row["percent"] / 100
                ]


class TestRequestLevelSchedules:
    def test_request_validation(self):
        with pytest.raises(ConfigurationError):
            JobRequest(
                job_id=0, arrival=0.0, protocols=("bsp", "asp"),
            )
        with pytest.raises(ConfigurationError):
            JobRequest(
                job_id=0, arrival=0.0, protocols=("bsp", "asp"),
                fractions=(0.5,),
            )
        with pytest.raises(ConfigurationError):
            JobRequest(
                job_id=0, arrival=0.0, protocols=("bsp", "nope"),
                fractions=(0.5, 0.5),
            )

    def test_trace_round_trip_keeps_schedule(self):
        request = JobRequest(
            job_id=7, arrival=3.0, sync_policy="sync-switch",
            protocols=("bsp", "dssp"), fractions=(0.375, 0.625),
        )
        again = JobRequest.from_dict(request.to_dict())
        assert again.protocols == ("bsp", "dssp")
        assert again.fractions == (0.375, 0.625)

    def test_old_trace_dicts_load_without_schedule_keys(self):
        payload = JobRequest(job_id=1, arrival=0.0).to_dict()
        del payload["protocols"]
        del payload["fractions"]
        request = JobRequest.from_dict(payload)
        assert request.protocols is None
        assert request.fractions is None
