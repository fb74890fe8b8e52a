"""Tests for telemetry and result serialization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distsim.result import TrainingResult
from repro.distsim.telemetry import TrainingTelemetry


class TestTelemetry:
    def test_loss_and_eval_logs(self):
        telemetry = TrainingTelemetry()
        telemetry.record_loss(100, 1.0, 2.5)
        telemetry.record_eval(100, 1.0, 0.8)
        assert telemetry.loss_log == [(100, 1.0, 2.5)]
        assert telemetry.eval_log == [(100, 1.0, 0.8)]

    def test_staleness_summary(self):
        telemetry = TrainingTelemetry()
        for value in [0, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 30]:
            telemetry.record_staleness(value)
        summary = telemetry.staleness_summary()
        assert summary["max"] == 30
        assert 6 <= summary["mean"] <= 9
        assert summary["p95"] >= 7

    def test_empty_staleness_summary(self):
        assert TrainingTelemetry().staleness_summary() == {
            "mean": 0.0,
            "p50": 0.0,
            "p95": 0.0,
            "max": 0.0,
        }

    def test_segments_open_close(self):
        telemetry = TrainingTelemetry()
        telemetry.open_segment("bsp", 0, 0.0)
        telemetry.close_segment(100, 50.0)
        record = telemetry.segments[0]
        assert record.steps == 100
        assert record.duration == 50.0

    def test_open_segment_has_zero_steps(self):
        telemetry = TrainingTelemetry()
        telemetry.open_segment("asp", 10, 5.0)
        assert telemetry.segments[0].steps == 0
        assert telemetry.segments[0].duration == 0.0

    def test_overheads(self):
        telemetry = TrainingTelemetry()
        telemetry.record_overhead(10.0, "switch", 36.0)
        telemetry.record_overhead(20.0, "evict", 18.0)
        telemetry.record_overhead(30.0, "switch", 36.0)
        assert telemetry.total_overhead == pytest.approx(90.0)
        assert telemetry.switch_count == 2


def make_result(**overrides) -> TrainingResult:
    base = dict(
        plan="bsp:6.25% -> asp:93.75%",
        seed=0,
        n_workers=8,
        total_steps=1000,
        completed_steps=1000,
        total_time=120.0,
        diverged=False,
        diverged_step=None,
        converged=True,
        converged_accuracy=0.85,
        reported_accuracy=0.85,
        best_accuracy=0.86,
        final_loss=0.2,
        eval_steps=(100, 200),
        eval_times=(10.0, 20.0),
        eval_accuracies=(0.5, 0.85),
        loss_steps=(50, 100),
        loss_values=(1.0, 0.5),
        segment_summary=(
            {"protocol": "bsp", "start_step": 0, "end_step": 62,
             "duration": 12.0, "images": 7936},
            {"protocol": "asp", "start_step": 62, "end_step": 1000,
             "duration": 100.0, "images": 120064},
        ),
        staleness={"mean": 7.0, "p95": 9.0, "max": 20.0},
        switch_count=1,
        total_overhead=36.0,
        images_processed=128000,
    )
    base.update(overrides)
    return TrainingResult(**base)


class TestTrainingResult:
    def test_throughput(self):
        assert make_result().throughput == pytest.approx(128000 / 120.0)

    def test_throughput_zero_time(self):
        assert make_result(total_time=0.0).throughput == 0.0

    def test_segment_throughput(self):
        result = make_result()
        assert result.segment_throughput("bsp") == pytest.approx(7936 / 12.0)
        assert result.segment_throughput("ssp") is None

    def test_time_to_accuracy(self):
        result = make_result()
        assert result.time_to_accuracy(0.8) == 20.0
        assert result.time_to_accuracy(0.4) == 10.0
        assert result.time_to_accuracy(0.99) is None

    def test_dict_roundtrip(self):
        result = make_result()
        clone = TrainingResult.from_dict(result.to_dict())
        assert clone == result

    def test_dict_roundtrip_through_json(self):
        import json

        result = make_result(diverged=True, diverged_step=77,
                             reported_accuracy=None)
        payload = json.dumps(result.to_dict())
        clone = TrainingResult.from_dict(json.loads(payload))
        assert clone.diverged
        assert clone.diverged_step == 77
        assert clone.reported_accuracy is None


@given(
    st.integers(min_value=1, max_value=10_000),
    st.floats(min_value=0.1, max_value=1e5),
    st.integers(min_value=0, max_value=10_000_000),
)
@settings(max_examples=30)
def test_throughput_never_negative(steps, time, images):
    result = make_result(
        completed_steps=steps, total_time=time, images_processed=images
    )
    assert result.throughput >= 0.0
