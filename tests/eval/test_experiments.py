"""Tests for the experiment registry (quick mode)."""

import pytest

from repro.eval.experiments import EXPERIMENTS, run_experiment


class TestRegistry:
    def test_every_paper_artifact_covered(self):
        """Every table and figure of the evaluation has a driver."""
        required = {
            "fig1", "table1", "fig2", "fig3", "table2", "fig4", "fig5",
            "fig6", "table3", "fig7", "fig8", "secVC", "secVD", "fig9",
        }
        assert required <= set(EXPERIMENTS)

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")


class TestQuickDrivers:
    """Cheap drivers checked directly at the quick preset (every driver
    runs and renders through ``bench paper --quick`` in
    ``tests/integration/test_all_experiments.py``)."""

    def test_fig2_products_exact(self):
        result = run_experiment("fig2", quick=True)
        assert all(row[4] == "yes" for row in result.rows)

    def test_table2_tub_always_smaller(self):
        result = run_experiment("table2", quick=True)
        for row in result.rows:
            assert row[3] < row[2]  # tub area < binary area
            assert row[6] < row[5]  # tub power < binary power

    def test_fig4_reductions_positive(self):
        result = run_experiment("fig4", quick=True)
        for row in result.rows:
            assert row[3] > 0  # area reduction %
            assert row[6] > 0  # power reduction %

    def test_secvd_improvement_above_one(self):
        result = run_experiment("secVD", quick=True)
        for row in result.rows:
            assert row[3] > 1.0

    def test_fig6_layouts_render(self):
        result = run_experiment("fig6", quick=True)
        assert "CMAC" in result.extra_text
        assert "PCU" in result.extra_text

    def test_fig9_projection_rows(self):
        result = run_experiment("fig9", quick=True)
        projected = [row for row in result.rows if row[3] == "projected"]
        assert len(projected) == 2
