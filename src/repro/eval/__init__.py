"""Evaluation harness: the paper's reported numbers, comparison reports,
iso-area throughput math, and one driver per table/figure
(:mod:`repro.eval.experiments`, run by ``python -m repro bench paper``;
imported on demand, since it loads the synthesis, P&R and CNN-training
stack)."""

from repro.eval.report import Comparison, comparison_table
from repro.eval.throughput import (
    iso_area_improvement,
    project_improvement,
)

__all__ = [
    "Comparison",
    "comparison_table",
    "iso_area_improvement",
    "project_improvement",
]
