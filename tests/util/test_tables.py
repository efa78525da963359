"""Tests for repro.util.tables."""

import pytest

from repro.util import format_percent, render_table


class TestRenderTable:
    def test_alignment(self):
        text = render_table(["a", "b"], [[1, "x"], [23, "y"]])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "23 | y" in text

    def test_title(self):
        text = render_table(["a"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_empty_rows(self):
        text = render_table(["col"], [])
        assert "col" in text

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])

    def test_float_formatting(self):
        text = render_table(["v"], [[0.123456789]])
        assert "0.1235" in text


class TestFormatPercent:
    def test_basic(self):
        assert format_percent(1, 4) == "25.0%"

    def test_zero_denominator(self):
        assert format_percent(1, 0) == "n/a"

    def test_rounding(self):
        assert format_percent(1, 3) == "33.3%"
