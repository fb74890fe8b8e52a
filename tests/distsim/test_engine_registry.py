"""Registry completeness: every registered engine instantiates and steps."""

import pytest

from repro.distsim.engines import (
    ENGINE_REGISTRY,
    engine_spec,
    is_synchronous,
    known_protocols,
    make_engine,
    precision_rank,
    synchronous_protocols,
)
from repro.distsim.cluster import Cluster, ClusterSpec
from repro.distsim.engines.base import TrainingSession
from repro.distsim.job import JobConfig, Segment, TrainingPlan
from repro.distsim.timing import timing_for
from repro.errors import ConfigurationError
from repro.mlcore.datasets import make_dataset
from repro.mlcore.models import make_model


def make_session(n_workers=4, total_steps=400, seed=0) -> TrainingSession:
    job = JobConfig(
        model="resnet32-sim",
        dataset="cifar10-sim",
        total_steps=total_steps,
        eval_every=200,
        loss_log_every=100,
        seed=seed,
    )
    return TrainingSession(
        job=job,
        model=make_model("resnet32-sim"),
        dataset=make_dataset("cifar10-sim"),
        timing=timing_for("resnet32-sim"),
        cluster=Cluster(ClusterSpec(n_workers=n_workers)),
    )


class TestRegistryShape:
    def test_expected_protocols_registered(self):
        assert known_protocols() == ("bsp", "osp", "ssp", "dssp", "asp",
                                     "casp")

    def test_ordered_most_precise_first(self):
        ranks = [precision_rank(name) for name in known_protocols()]
        assert ranks == sorted(ranks)
        assert len(set(ranks)) == len(ranks)  # strict ordering

    def test_synchronous_flags(self):
        assert synchronous_protocols() == {"bsp", "osp"}
        assert is_synchronous("bsp") and is_synchronous("osp")
        assert not is_synchronous("asp")

    def test_spec_is_self_describing(self):
        for name, spec in ENGINE_REGISTRY.items():
            assert spec.name == name
            assert spec.summary  # first docstring line
            assert "lr_multiplier" in spec.config_schema

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            engine_spec("allreduce")
        with pytest.raises(ConfigurationError):
            make_engine("allreduce")


class TestOptionKeysChecked:
    """A segment may only carry keys of its engine's ``config_schema``:
    engines look options up by name, so any other key would be ignored
    without a word."""

    @pytest.mark.parametrize("protocol", known_protocols())
    def test_bogus_key_rejected(self, protocol):
        known = ", ".join(sorted(engine_spec(protocol).config_schema))
        with pytest.raises(ConfigurationError) as excinfo:
            Segment(protocol, 1.0, {"compresion": "qsgd"})
        assert str(excinfo.value) == (
            f"engine {protocol!r} does not take option 'compresion' "
            f"(known: {known})"
        )

    @pytest.mark.parametrize("protocol", known_protocols())
    def test_every_schema_key_accepted(self, protocol):
        options = dict.fromkeys(engine_spec(protocol).config_schema, 1)
        assert Segment(protocol, 1.0, options).options == options

    def test_misplaced_key_names_the_engines_that_take_it(self):
        with pytest.raises(ConfigurationError, match="use protocol 'ssp'$"):
            TrainingPlan.static("asp", staleness_bound=3)

    @pytest.mark.parametrize(
        "protocol, options, complaint",
        [
            # no worker is ever admitted: 4 of 240 steps, "completed"
            ("ssp", {"staleness_bound": -1},
             "'staleness_bound' is -1; it must be >= 0"),
            # chunks of no steps: the run never returned
            ("dssp", {"adapt_every": 0}, "'adapt_every' is 0; it must be >= 1"),
            # these two used to be rewritten to other values without a word
            ("osp", {"sync_period": 0}, "'sync_period' is 0; it must be >= 1"),
            ("dssp", {"lower_bound": 9, "upper_bound": 2},
             "'upper_bound' is 2; it must be >= 'lower_bound' (9)"),
            ("dssp", {"lower_bound": 9},  # against the default upper bound
             "'upper_bound' is 8; it must be >= 'lower_bound' (9)"),
            ("dssp", {"lower_bound": -1}, "'lower_bound' is -1; it must be >= 0"),
            ("dssp", {"upper_bound": -2}, "'upper_bound' is -2; it must be >= 0"),
            ("asp", {"batch_size": 0}, "'batch_size' is 0; it must be >= 1"),
        ],
    )
    def test_out_of_range_value_rejected(self, protocol, options, complaint):
        """Values are checked where the keys are: none of these trains,
        stalls or hangs, from whichever constructor the segment comes."""
        for build in (
            lambda: Segment(protocol, 1.0, options),
            lambda: TrainingPlan.static(protocol, **options),
            lambda: TrainingPlan.schedule([protocol], [1.0], [options]),
        ):
            with pytest.raises(ConfigurationError) as excinfo:
                build()
            assert str(excinfo.value) == (
                f"engine {protocol!r} option {complaint}"
            )


class TestEveryEngineRuns:
    """The completeness guarantee: registration implies runnability.

    Parametrized over the registry itself, so adding an engine
    automatically extends the suite to it.
    """

    @pytest.mark.parametrize("protocol", known_protocols())
    def test_instantiates_and_steps(self, protocol):
        engine = make_engine(protocol)
        assert engine.name == protocol
        session = make_session(n_workers=4, total_steps=400)
        reason = engine.run(session, steps=40)
        assert reason == "completed"
        assert session.step == 40
        assert session.clock.now > 0.0

    def test_synchronous_engines_have_zero_staleness(self):
        for protocol in sorted(synchronous_protocols()):
            session = make_session(n_workers=4)
            make_engine(protocol).run(session, steps=32)
            assert set(session.telemetry.staleness_counts) == {0}, protocol
