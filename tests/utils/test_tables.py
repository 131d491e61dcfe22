"""Tests for report rendering helpers."""

import pytest

from repro.utils.tables import (
    Column,
    ascii_bar_chart,
    format_table,
    render_columns,
    yes_no,
)


class TestFormatTable:
    def test_contains_headers_and_rows(self):
        text = format_table(["a", "bb"], [[1, 2], [3, 4]])
        assert "a" in text and "bb" in text
        assert "3" in text and "4" in text

    def test_title_on_first_line(self):
        text = format_table(["x"], [[1]], title="caption")
        assert text.splitlines()[0] == "caption"

    def test_float_formatting(self):
        text = format_table(["x"], [[3.14159265]], float_format=".2f")
        assert "3.14" in text
        assert "3.14159" not in text

    def test_alignment_uniform_width(self):
        text = format_table(["col"], [[1], [100]])
        lines = text.splitlines()
        assert len(lines[-1]) == len(lines[-2])

    def test_empty_rows(self):
        text = format_table(["a"], [])
        assert "a" in text


class TestBarChart:
    def test_bar_lengths_proportional(self):
        text = ascii_bar_chart(["a", "b"], [1.0, 2.0], width=10)
        line_a, line_b = text.splitlines()
        assert line_b.count("#") == 2 * line_a.count("#")

    def test_zero_values_ok(self):
        text = ascii_bar_chart(["a"], [0.0])
        assert "a" in text

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            ascii_bar_chart(["a"], [1.0, 2.0])

    def test_title(self):
        assert ascii_bar_chart(["a"], [1.0], title="T").startswith("T")


class TestRenderColumns:
    ROWS = [
        {"name": "resnet18", "speedup": 2.3456, "ok": True},
        {"name": "mobilenet_v2", "speedup": 1.0, "ok": False},
    ]

    def test_key_and_callable_columns(self):
        text = render_columns(
            self.ROWS,
            [
                Column("model", "name"),
                Column("flag", lambda row: yes_no(row["ok"])),
            ],
        )
        lines = text.splitlines()
        assert lines[0].split(" | ") == [
            "       model", "flag"
        ]
        assert "resnet18" in lines[2] and "yes" in lines[2]
        assert "mobilenet_v2" in lines[3] and "NO" in lines[3]

    def test_format_spec_and_suffix(self):
        text = render_columns(
            self.ROWS,
            [Column("speedup", "speedup", format=".2f", suffix="x")],
        )
        assert "2.35x" in text
        assert "1.00x" in text

    def test_title_and_float_format_passthrough(self):
        text = render_columns(
            self.ROWS,
            [Column("speedup", "speedup")],
            title="header line",
            float_format=".1f",
        )
        assert text.splitlines()[0] == "header line"
        assert "2.3\n" in text + "\n"

    def test_matches_format_table(self):
        # render_columns is a declarative veneer over format_table —
        # identical output for the same cells.
        columns = [Column("model", "name"), Column("v", "speedup")]
        assert render_columns(self.ROWS, columns) == format_table(
            ["model", "v"],
            [[r["name"], r["speedup"]] for r in self.ROWS],
        )


class TestYesNo:
    def test_truthiness(self):
        assert yes_no(True) == "yes"
        assert yes_no(1) == "yes"
        assert yes_no(False) == "NO"
        assert yes_no(0) == "NO"
