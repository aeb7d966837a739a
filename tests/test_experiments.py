"""Tests for the experiment harness (light experiments + reporting)."""

import pytest

from repro.experiments import fig3, fig4, table3, table4, table6
from repro.experiments.reporting import ExperimentResult, format_table
from repro.experiments.runner import LIGHT, run_experiment
from repro.experiments.spec import SPECS


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(("a", "long header"), [(1, 2.5), ("xx", "y")])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "long header" in lines[0]
        assert "2.50" in text  # float formatting

    def test_experiment_result_render(self):
        result = ExperimentResult("T", "title", ("x", "y"))
        result.add_row(1, 2)
        result.add_note("hello")
        rendered = result.render()
        assert "== T: title ==" in rendered
        assert "note: hello" in rendered


class TestLightExperiments:
    def test_table3_is_table_iii(self):
        result = table3.run()
        assert [row[0] for row in result.rows] == list("AELIMHTD")

    def test_table4_ordering(self):
        result = table4.run()
        units = [row[1] for row in result.rows]
        assert units == sorted(units)  # UoM < Wolfram < DimUnitDB

    def test_fig3_matches_paper_exactly(self):
        result = fig3.run()
        for row in result.rows:
            assert row[2] == pytest.approx(row[3], abs=0.02)
        # no mismatch notes means label order matched the paper
        assert not any("vs paper" in note for note in result.notes)

    def test_fig4_shape(self):
        result = fig4.run()
        assert len(result.rows) == 14

    def test_table6_quick(self):
        result = table6.run(quick=True)
        assert len(result.rows) == 4
        for row in result.rows:
            assert row[1] == 100  # quick mode problem count

    def test_runner_registry_covers_all_paper_artifacts(self):
        assert set(SPECS) == {
            "table3", "table4", "fig3", "fig4", "table6",
            "table7", "table8", "table9", "fig6", "fig7",
        }
        assert set(LIGHT) <= set(SPECS)

    def test_runner_dispatch(self):
        result = run_experiment("table3")
        assert result.experiment_id == "Table III"

    def test_runner_unknown_experiment(self):
        # KeyError (not SystemExit): programmatic callers aren't killed.
        with pytest.raises(KeyError, match="table99"):
            run_experiment("table99")
