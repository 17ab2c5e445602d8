"""Tests for the plain-text figure renderers."""

import pytest

from repro.experiments.plots import cdf_plot, stacked_bar_chart


class TestStackedBarChart:
    def test_stacks_to_width(self):
        rows = {
            "Simple": {"BS": 60.0, "NB": 40.0},
            "All": {"BS": 90.0, "NB": 10.0},
        }
        text = stacked_bar_chart(rows, width=20)
        lines = text.splitlines()
        assert len(lines) == 3  # two bars + legend
        for line in lines[:2]:
            inside = line[line.index("|") + 1 : line.rindex("|")]
            assert len(inside) == 20
        assert "#=BS" in lines[-1]

    def test_category_limit(self):
        rows = {"bar": {str(i): 10.0 for i in range(9)}}
        with pytest.raises(ValueError):
            stacked_bar_chart(rows)

    def test_width_guard(self):
        with pytest.raises(ValueError):
            stacked_bar_chart({"a": {"x": 100.0}}, width=2)


class TestCDFPlot:
    def test_empty(self):
        assert cdf_plot([]) == "(empty CDF)"

    def test_shape(self):
        fractions = [i / 10 for i in range(1, 11)]
        text = cdf_plot(fractions, width=30, height=8)
        lines = text.splitlines()
        assert lines[0].startswith("1.0 +")
        assert any(line.startswith("0.0 +") for line in lines)
        assert "*" in text and "." in text
        assert "rank 10" in text

    def test_guards(self):
        with pytest.raises(ValueError):
            cdf_plot([0.5], width=1)
        with pytest.raises(ValueError):
            cdf_plot([0.5], height=1)

    def test_skewed_cdf_sits_above_diagonal(self):
        # Heavily skewed: first rank owns 90% of mass.
        fractions = [0.9] + [0.9 + 0.1 * i / 9 for i in range(1, 10)]
        text = cdf_plot(fractions, width=30, height=10)
        lines = [line for line in text.splitlines() if "|" in line or "+" in line]
        # The star curve must appear in the top rows early on.
        top_rows = "".join(lines[:3])
        assert "*" in top_rows
