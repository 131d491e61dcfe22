"""Plain-text report rendering for the benchmark harness.

The environment has no plotting stack, so "figures" are rendered as aligned
ASCII tables and horizontal bar charts; the series the paper plots are
recorded in ``results/BENCH_paper.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence


def _render_cell(value: object, float_format: str) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return format(value, float_format)
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
    float_format: str = ".4g",
) -> str:
    """Render rows as an aligned monospace table.

    Args:
        headers: column names.
        rows: row values; floats are formatted with ``float_format``.
        title: optional caption printed above the table.
        float_format: format spec applied to float cells.
    """
    text_rows = [
        [_render_cell(cell, float_format) for cell in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def fmt_line(cells: Sequence[str]) -> str:
        return " | ".join(
            cell.rjust(widths[i]) for i, cell in enumerate(cells)
        )

    divider = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(fmt_line(list(headers)))
    lines.append(divider)
    lines.extend(fmt_line(row) for row in text_rows)
    return "\n".join(lines)


@dataclass(frozen=True)
class Column:
    """One column of a benchmark table: header + cell extraction.

    The benchmark renderers are declarative column lists over flattened
    payload rows (mappings), so every driver shares one formatting
    path instead of hand-rolling f-strings per cell.

    Attributes:
        header: column name.
        value: row key, or a callable mapping the row to the value.
        format: optional :func:`format` spec applied to the value
            (e.g. ``","`` for thousands separators, ``".3f"``).
        suffix: literal appended after formatting (e.g. ``"x"``).
    """

    header: str
    value: "str | Callable[[Mapping], object]"
    format: "str | None" = None
    suffix: str = ""

    def cell(self, row: Mapping) -> object:
        value = (
            row[self.value]
            if isinstance(self.value, str)
            else self.value(row)
        )
        if self.format is not None:
            value = format(value, self.format)
        if self.suffix:
            value = f"{value}{self.suffix}"
        return value


def render_columns(
    rows: Iterable[Mapping],
    columns: Sequence[Column],
    title: "str | None" = None,
    float_format: str = ".4g",
) -> str:
    """Render mapping rows through a declarative column list.

    The generic benchmark-table renderer: each driver flattens its
    payload into row mappings and declares its columns; alignment and
    cell formatting live here once.
    """
    return format_table(
        [column.header for column in columns],
        [[column.cell(row) for column in columns] for row in rows],
        title=title,
        float_format=float_format,
    )


def yes_no(flag: object) -> str:
    """The benchmark tables' verification cell: ``yes`` / ``NO``."""
    return "yes" if flag else "NO"


def ascii_bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    title: str | None = None,
    width: int = 50,
    value_format: str = ".4g",
) -> str:
    """Render a horizontal bar chart — the textual stand-in for the paper's
    bar figures (Figs. 4, 5, 7, 8)."""
    if len(labels) != len(values):
        raise ValueError("labels and values must have the same length")
    peak = max((abs(v) for v in values), default=0.0)
    scale = (width / peak) if peak > 0 else 0.0
    label_width = max((len(label) for label in labels), default=0)
    lines = []
    if title:
        lines.append(title)
    for label, value in zip(labels, values):
        bar = "#" * max(0, round(abs(value) * scale))
        lines.append(
            f"{label.ljust(label_width)} | {bar} {format(value, value_format)}"
        )
    return "\n".join(lines)

