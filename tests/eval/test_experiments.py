"""Tests for the experiment registry (quick mode)."""

from dataclasses import replace

from repro.eval.experiments import EXPERIMENTS
from repro.tune.spec import PAPER_SWEEP


def _quick(experiment_id):
    """One experiment's driver at the quick preset of the paper spec."""
    return EXPERIMENTS[experiment_id](replace(PAPER_SWEEP, quick=True))


class TestRegistry:
    def test_every_paper_artifact_covered(self):
        """Every table and figure of the evaluation has a driver."""
        required = {
            "fig1", "table1", "fig2", "fig3", "table2", "fig4", "fig5",
            "fig6", "table3", "fig7", "fig8", "secVC", "secVD", "fig9",
        }
        assert required <= set(EXPERIMENTS)


class TestQuickDrivers:
    """Cheap drivers checked directly at the quick preset (every driver
    runs and renders through ``bench paper --quick`` in
    ``tests/integration/test_all_experiments.py``)."""

    def test_fig2_products_exact(self):
        result = _quick("fig2")
        assert all(row[4] == "yes" for row in result.rows)

    def test_table2_tub_always_smaller(self):
        result = _quick("table2")
        for row in result.rows:
            assert row[3] < row[2]  # tub area < binary area
            assert row[6] < row[5]  # tub power < binary power

    def test_fig4_reductions_positive(self):
        result = _quick("fig4")
        for row in result.rows:
            assert row[3] > 0  # area reduction %
            assert row[6] > 0  # power reduction %

    def test_secvd_improvement_above_one(self):
        result = _quick("secVD")
        for row in result.rows:
            assert row[3] > 1.0

    def test_fig6_layouts_render(self):
        result = _quick("fig6")
        assert "CMAC" in result.extra_text
        assert "PCU" in result.extra_text

    def test_fig9_projection_rows(self):
        result = _quick("fig9")
        projected = [row for row in result.rows if row[3] == "projected"]
        assert len(projected) == 2
