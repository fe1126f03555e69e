"""Tests for the reporting layer: tables, ASCII plots, experiment registry."""

from __future__ import annotations

import pytest

from repro.reporting.ascii_plots import bar_chart, line_plot, sparkline
from repro.reporting.experiments import EXPERIMENTS, list_experiments, run_experiment
from repro.reporting.tables import format_kv, format_table, to_csv, to_markdown


class TestTables:
    HEADERS = ["Model", "Speedup", "Notes"]
    ROWS = [["efficientnet-b7", 6.4, "depthwise heavy"], ["bert-1024", 2.7, "attention bound"]]

    def test_format_table_aligns_columns(self):
        text = format_table(self.HEADERS, self.ROWS)
        lines = text.splitlines()
        assert len(lines) == 2 + len(self.ROWS)
        assert lines[0].startswith("Model")
        assert set(lines[1].replace(" ", "")) == {"-"}
        # All rows should be at least as wide as the longest cell prefix.
        assert "efficientnet-b7" in lines[2]

    def test_format_table_handles_empty_rows(self):
        text = format_table(self.HEADERS, [])
        assert len(text.splitlines()) == 2

    def test_format_kv_alignment_and_title(self):
        text = format_kv({"alpha": 1, "much_longer_key": 2.5}, title="Summary")
        lines = text.splitlines()
        assert lines[0] == "Summary"
        assert lines[1].index("1") == lines[2].index("2.5")

    def test_to_csv_roundtrip(self):
        text = to_csv(self.HEADERS, self.ROWS)
        assert text.splitlines()[0] == "Model,Speedup,Notes"
        assert len(text.splitlines()) == 3

    def test_to_markdown_structure(self):
        text = to_markdown(self.HEADERS, self.ROWS)
        lines = text.splitlines()
        assert lines[0].startswith("| Model")
        assert lines[1].count("---") == 3
        assert len(lines) == 4


class TestAsciiPlots:
    def test_bar_chart_contains_labels_and_bars(self):
        chart = bar_chart({"a": 1.0, "bb": 3.0}, width=10, unit="x")
        lines = chart.splitlines()
        assert len(lines) == 2
        assert lines[1].count("█") > lines[0].count("█")

    def test_bar_chart_empty(self):
        assert bar_chart({}, title="empty") == "empty"

    def test_sparkline_length_and_extremes(self):
        spark = sparkline([0, 1, 2, 3, 4])
        assert len(spark) == 5
        assert spark[0] == "▁" and spark[-1] == "█"

    def test_sparkline_constant_series(self):
        assert sparkline([2.0, 2.0, 2.0]) == "▁▁▁"

    def test_sparkline_empty(self):
        assert sparkline([]) == ""

    def test_line_plot_contains_series_markers_and_legend(self):
        plot = line_plot({"random": [1, 2, 3], "lcs": [1, 3, 5]}, title="convergence")
        assert "convergence" in plot
        assert "* random" in plot
        assert "o lcs" in plot

    def test_line_plot_empty_series(self):
        assert line_plot({"empty": []}, title="t") == "t"


class TestExperimentRegistry:
    def test_all_experiments_listed(self):
        names = {spec.name for spec in list_experiments()}
        assert {"table1", "table2", "fig3", "fig5", "fig6", "table4", "table5", "fig13"} <= names

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiment("table99")

    def test_registry_entries_have_titles_data_and_renderers(self):
        for spec in EXPERIMENTS.values():
            assert spec.title
            assert callable(spec.data) and callable(spec.render)

    def test_table1_report(self):
        report = run_experiment("table1")
        assert "efficientnet-b7" in report.text
        assert "Max Working Set" in report.text
        assert report.experiment == "table1"

    def test_fig3_report_with_reduced_batches(self):
        report = run_experiment("fig3", batch_sizes=(1,))
        assert "bert-seq1024" in report.text
        assert "Ideal" in report.text

    def test_fig6_roi_rows(self):
        report = run_experiment("fig6")
        assert "Volume" in report.text
        assert "100.0x" in report.text or "100x" in report.text

    def test_str_rendering_includes_notes(self):
        report = run_experiment("fig6")
        rendered = str(report)
        assert rendered.startswith("===== fig6")
        assert "Notes:" in rendered

    def test_an_unknown_input_is_an_error(self):
        with pytest.raises(TypeError, match="trails"):
            run_experiment("fig6", trails=8)
