"""Tests for the ASCII figure rendering helpers."""

from repro.analysis.report import (
    BAR_WIDTH,
    bar_chart,
    grouped_bar_chart,
    sparkline,
    table,
)


class TestBarChart:
    def test_rows_and_values_rendered(self):
        out = bar_chart({"alpha": 0.5, "beta": 1.0}, title="T")
        assert out.startswith("T")
        assert "alpha" in out and "beta" in out
        assert "0.500" in out and "1.000" in out

    def test_bar_length_proportional(self):
        out = bar_chart({"half": 0.5, "full": 1.0}, vmax=1.0)
        lines = out.splitlines()
        half_bar = lines[0].split("│")[1]
        full_bar = lines[1].split("│")[1]
        assert full_bar.count("█") == BAR_WIDTH
        assert half_bar.count("█") == BAR_WIDTH // 2

    def test_empty_rows(self):
        assert bar_chart({}, title="only title") == "only title"

    def test_vmax_zero_safe(self):
        out = bar_chart({"z": 0.0})
        assert "z" in out


class TestGroupedBarChart:
    def test_two_series_per_label(self):
        out = grouped_bar_chart(
            {"chase": (0.8, 0.98)}, series=("text", "key")
        )
        assert "0.800" in out and "0.980" in out
        assert "░" in out and "█" in out

    def test_empty(self):
        assert grouped_bar_chart({}, series=("a", "b"), title="t") == "t"


class TestTable:
    def test_alignment_and_content(self):
        out = table(["name", "acc"], [["chase", 0.9], ["amex", 0.85]], title="apps")
        lines = out.splitlines()
        assert lines[0] == "apps"
        assert "name" in lines[1] and "acc" in lines[1]
        assert "chase" in out and "0.85" in out

    def test_wide_cells_expand_columns(self):
        out = table(["x"], [["averyverylongvalue"]])
        assert "averyverylongvalue" in out


class TestSparkline:
    def test_length_matches_input(self):
        assert len(sparkline([1, 2, 3, 4])) == 4

    def test_monotone_values_monotone_blocks(self):
        from repro.analysis.report import _BLOCKS

        line = sparkline([1, 2, 3, 4], vmax=4)
        levels = [_BLOCKS.index(c) for c in line]
        assert levels == sorted(levels)

    def test_empty(self):
        assert sparkline([]) == ""
