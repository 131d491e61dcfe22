"""Shared utilities: integer precision helpers, seeded RNG, report rendering."""

from repro.utils.intrange import (
    INT2,
    INT4,
    INT8,
    IntSpec,
    SUPPORTED_WIDTHS,
    int_spec,
)
from repro.utils.rng import make_rng
from repro.utils.tables import ascii_bar_chart, format_table

__all__ = [
    "INT2",
    "INT4",
    "INT8",
    "IntSpec",
    "SUPPORTED_WIDTHS",
    "int_spec",
    "make_rng",
    "ascii_bar_chart",
    "format_table",
]
