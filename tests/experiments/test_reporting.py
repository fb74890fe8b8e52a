"""Tests for report rendering, aggregation and cross-artifact batching."""

import pytest

from repro.distsim.result import TrainingResult
from repro.experiments import ARTIFACTS, ExperimentRunner
from repro.experiments.aggregate import (
    accuracy_stats,
    divergence_rate,
    mean,
    mean_time_to_accuracy,
    std,
    time_stats,
)
from repro.experiments.executor import RunRequest
from repro.experiments.figures import figure_2, figure_5b
from repro.experiments.reporting import Report, prefetch_union, render_report
from repro.experiments.setups import SETUPS, switch_spec
from repro.experiments.tables import table_3


def result(accuracy=0.85, diverged=False, total_time=100.0) -> TrainingResult:
    return TrainingResult(
        plan="asp:100%",
        seed=0,
        n_workers=8,
        total_steps=100,
        completed_steps=100,
        total_time=total_time,
        diverged=diverged,
        diverged_step=50 if diverged else None,
        converged=not diverged,
        converged_accuracy=None if diverged else accuracy,
        reported_accuracy=None if diverged else accuracy,
        best_accuracy=None if diverged else accuracy,
        final_loss=0.3,
        eval_steps=(50, 100),
        eval_times=(10.0, 20.0),
        eval_accuracies=(accuracy - 0.2, accuracy),
        loss_steps=(),
        loss_values=(),
        segment_summary=(),
        staleness={},
        switch_count=0,
        total_overhead=0.0,
        images_processed=12800,
    )


class TestAggregate:
    def test_mean_and_std(self):
        assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)
        assert std([2.0, 2.0]) == pytest.approx(0.0)
        assert mean([]) is None
        assert std([]) is None
        assert mean([1.0, None, 3.0]) == pytest.approx(2.0)

    def test_accuracy_stats(self):
        stats = accuracy_stats([result(0.8), result(0.9), result(diverged=True)])
        assert stats["accuracy_mean"] == pytest.approx(0.85)
        assert stats["accuracy_best"] == pytest.approx(0.9)
        assert stats["diverged"] == 1
        assert stats["n_runs"] == 3

    def test_time_stats_exclude_diverged(self):
        stats = time_stats([result(total_time=100.0),
                            result(diverged=True, total_time=5.0)])
        assert stats["time_mean"] == pytest.approx(100.0)

    def test_divergence_rate(self):
        assert divergence_rate([]) == 0.0
        assert divergence_rate([result(), result(diverged=True)]) == 0.5

    def test_mean_tta(self):
        tta, reached = mean_time_to_accuracy([result(0.9), result(0.7)], 0.85)
        assert reached == 1
        assert tta == pytest.approx(20.0)


class TestRenderReport:
    def test_contains_rows_and_notes(self):
        report = Report(
            ident="Table X",
            title="demo",
            columns=["name", "value"],
            rows=[{"name": "a", "value": 1.25}, {"name": "b", "value": None}],
            paper_rows=[{"name": "a", "value": 1.3}],
            notes=["a caveat"],
        )
        text = render_report(report)
        assert "Table X" in text
        assert "measured:" in text
        assert "paper:" in text
        assert "a caveat" in text
        assert "1.25" in text
        assert "-" in text  # None rendered as dash

    def test_alignment_header_separator(self):
        report = Report(
            ident="F",
            title="t",
            columns=["col"],
            rows=[{"col": "x"}],
        )
        lines = render_report(report).splitlines()
        separator = [line for line in lines if set(line) <= {"-", " "} and line]
        assert separator

    def test_column_values(self):
        report = Report(
            ident="F",
            title="t",
            columns=["col"],
            rows=[{"col": 1}, {"col": 2}],
        )
        assert report.column_values("col") == [1, 2]


class TestCrossArtifactScheduling:
    SCALE = 0.008

    def runner(self, tmp_path) -> ExperimentRunner:
        return ExperimentRunner(
            scale=self.SCALE, seeds=1, cache_dir=tmp_path, jobs=1
        )

    def test_prefetch_union_deduplicates_across_artifacts(self, tmp_path):
        runner = self.runner(tmp_path)
        # fig2 uses {0, 25, 50, 100}%; fig5b sweeps 7 percents
        # including those four: the union is exactly the sweep.
        unique = prefetch_union(runner, [figure_2, figure_5b])
        assert unique == 7
        assert len(list(tmp_path.glob("*.json"))) == 7

    def test_rendering_after_union_prefetch_adds_no_cells(self, tmp_path):
        runner = self.runner(tmp_path)
        prefetch_union(runner, [figure_2])
        cached = set(tmp_path.glob("*.json"))
        report = figure_2(runner)
        assert len(report.rows) == 4
        assert set(tmp_path.glob("*.json")) == cached

    def test_table_3_cell_joins_the_union(self, tmp_path):
        # Table III reads one P1 run; it must train in the union batch,
        # not in a second batch once the table is built.
        runner = self.runner(tmp_path)
        assert prefetch_union(runner, [table_3]) == 1
        assert len(list(tmp_path.glob("*.json"))) == 1


#: Unique training cells each artifact declares at one seed (the
#: ``batch:`` line of the artifact rendered alone on a fresh cache).
DECLARED_CELLS = {
    "fig2": 4, "fig4a": 6, "fig4b": 10, "fig5a": 4, "fig5b": 7,
    "fig8a": 2, "fig8b": 5, "fig10": 9, "fig11": 7, "fig12": 6,
    "fig13": 4, "fig14": 12, "fig15": 6, "fig16": 17,
    "tab1": 9, "tab2": 17, "tab3": 1, "tab4": 7, "tab5": 6, "tab6": 4,
    "fleet": 0, "fleet-search": 0, "fleet-trace": 0, "fleet-trace-scale": 0,
}


class _RefusingExecutor:
    """Any cell that reaches the executor was read but not declared."""

    def execute(self, requests):
        cells = [(request.setup.index, request.spec) for request in requests]
        raise AssertionError(f"undeclared cells: {cells}")


class TestDeclarations:
    SCALE = 0.002

    def runner(self) -> ExperimentRunner:
        return ExperimentRunner(
            scale=self.SCALE, seeds=1, cache_dir="off", jobs=1
        )

    @pytest.fixture(scope="class")
    def trained(self) -> TrainingResult:
        """One real setup-1 run with both a BSP and an ASP segment,
        standing in for every declared cell."""
        return self.runner().run(SETUPS[1], switch_spec(50.0), 0)

    def test_every_artifact_declares_its_cell_count(self):
        assert set(DECLARED_CELLS) == set(ARTIFACTS)
        counts = {
            key: len(
                {
                    RunRequest(setup, spec, 0).key(self.SCALE)
                    for setup, spec in ARTIFACTS[key].cells
                }
            )
            for key in ARTIFACTS
        }
        assert counts == DECLARED_CELLS

    @pytest.mark.parametrize(
        "key", [key for key, count in DECLARED_CELLS.items() if count]
    )
    def test_declared_cells_are_all_the_build_reads(self, key, trained):
        runner = self.runner()
        artifact = ARTIFACTS[key]
        for setup, spec in artifact.cells:
            runner._memory[RunRequest(setup, spec, 0).key(self.SCALE)] = trained
        runner._executor = _RefusingExecutor()
        assert artifact(runner).rows
