"""Tests for the design-space autotuner."""

from dataclasses import replace

import pytest

from repro.errors import DataflowError
from repro.tune.autotune import (
    OBJECTIVES,
    Slo,
    array_report,
    dominates,
    pareto_frontier,
    render_pareto_tune,
    run_pareto_tune,
)
from repro.tune.spec import PARETO_SWEEP

#: A small grid the quick preset evaluates in well under a second.
QUICK_GRID = replace(
    PARETO_SWEEP,
    backends=("binary", "tempus"),
    precisions=("int8", "int4"),
    geometries=("8x8", "16x16"),
    quick=True,
)


def _point(cycles, pj, mm2, label="p"):
    return {
        "cycles_per_image": cycles,
        "pj_per_image": pj,
        "area_mm2": mm2,
        "label": label,
    }


class TestSlo:
    def test_unconstrained_admits_everything(self):
        slo = Slo()
        assert not slo.constrained
        assert slo.admits(1e12, 1e12)

    def test_budgets_enforced_independently(self):
        slo = Slo(max_cycles_per_image=100, max_pj_per_image=50)
        assert slo.constrained
        assert slo.admits(100, 50)
        assert not slo.admits(101, 50)
        assert not slo.admits(100, 51)

    def test_rejects_non_positive_budget(self):
        with pytest.raises(DataflowError, match="must be positive"):
            Slo(max_cycles_per_image=0)
        with pytest.raises(DataflowError, match="must be positive"):
            Slo(max_pj_per_image=-1)

    def test_as_dict(self):
        assert Slo(max_pj_per_image=2.0).as_dict() == {
            "max_cycles_per_image": None,
            "max_pj_per_image": 2.0,
        }


class TestDominance:
    def test_strictly_better_dominates(self):
        assert dominates(_point(1, 1, 1), _point(2, 2, 2))

    def test_better_on_one_axis_with_ties_dominates(self):
        assert dominates(_point(1, 2, 2), _point(2, 2, 2))

    def test_equal_points_do_not_dominate(self):
        assert not dominates(_point(1, 1, 1), _point(1, 1, 1))

    def test_tradeoff_points_incomparable(self):
        a = _point(1, 5, 1)
        b = _point(5, 1, 1)
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_frontier_prunes_dominated(self):
        good = _point(1, 5, 1, "good")
        other = _point(5, 1, 1, "other")
        bad = _point(6, 6, 6, "bad")
        frontier = pareto_frontier([bad, other, good])
        assert [p["label"] for p in frontier] == ["good", "other"]

    def test_frontier_dedupes_tied_objective_vectors(self):
        # Binary cycle cost is precision-independent, so distinct
        # assignments can tie exactly; the frontier keeps the first.
        first = _point(1, 1, 1, "first")
        twin = _point(1, 1, 1, "twin")
        assert pareto_frontier([first, twin]) == [first]

    def test_frontier_sorted_fastest_first(self):
        frontier = pareto_frontier(
            [_point(5, 1, 1, "b"), _point(1, 5, 1, "a")]
        )
        assert [p["label"] for p in frontier] == ["a", "b"]


class TestAreaModel:
    def test_array_report_cached_and_timed(self):
        report = array_report("binary", 8, 8)
        assert report.area_mm2 > 0
        assert report is array_report("binary", 8, 8)

    def test_unknown_array_rejected(self):
        with pytest.raises(DataflowError, match="unknown array"):
            array_report("ternary", 8, 8)


class TestRunParetoTune:
    @pytest.fixture(scope="class")
    def payload(self):
        return run_pareto_tune(QUICK_GRID, out_dir=None)

    def test_payload_shape(self, payload):
        assert payload["benchmark"] == "pareto_tune"
        assert payload["net"] == "mobilenet_v2"
        assert payload["objectives"] == list(OBJECTIVES)
        assert payload["explored"] == 8
        assert payload["feasible"] == 8
        assert payload["axes"]["geometries"] == ["8x8", "16x16"]
        assert "artifact" not in payload

    def test_points_carry_objectives(self, payload):
        for point in payload["points"]:
            for objective in OBJECTIVES:
                assert point[objective] > 0
            assert point["cycles"] > 0
            assert point["meets_slo"]
            assert set(point["arrays"]) <= {"binary", "tub"}

    def test_frontier_non_dominated_subset(self, payload):
        frontier = payload["frontier"]
        assert frontier
        explored = {
            tuple(p[o] for o in OBJECTIVES)
            for p in payload["points"]
        }
        for point in frontier:
            assert tuple(point[o] for o in OBJECTIVES) in explored
            assert not any(
                dominates(other, point)
                for other in frontier
                if other is not point
            )

    def test_binary_precision_tie_collapsed(self, payload):
        # binary int8 and int4 share cycles, energy, and area exactly;
        # the frontier must not list the same vector twice.
        vectors = [
            tuple(p[o] for o in OBJECTIVES)
            for p in payload["frontier"]
        ]
        assert len(vectors) == len(set(vectors))

    def test_infeasible_slo_names_tightest_budgets(self):
        with pytest.raises(
            DataflowError, match="tightest achievable"
        ):
            run_pareto_tune(
                QUICK_GRID,
                slo=Slo(max_cycles_per_image=1.0),
                out_dir=None,
            )

    def test_slo_filters_feasible_set(self, payload):
        budget = max(
            p["cycles_per_image"] for p in payload["points"]
        )
        constrained = run_pareto_tune(
            QUICK_GRID,
            slo=Slo(max_cycles_per_image=budget - 1),
            out_dir=None,
        )
        assert constrained["feasible"] < constrained["explored"]
        assert all(
            p["meets_slo"] for p in constrained["frontier"]
        )

    def test_writes_artifact(self, tmp_path):
        payload = run_pareto_tune(
            replace(
                QUICK_GRID,
                backends=("tempus",),
                precisions=("int8",),
                geometries=("8x8",),
            ),
            out_dir=tmp_path,
        )
        artifact = tmp_path / "BENCH_pareto.json"
        assert artifact.exists()
        assert payload["artifact"] == str(artifact)

    def test_render(self, payload):
        text = render_pareto_tune(payload)
        assert "design-space Pareto frontier for mobilenet_v2" in text
        assert "8 assignments explored" in text
        assert "SLO: unconstrained" in text
        assert "cycles/image" in text and "mm^2" in text

    def test_multi_net_grid_rejected(self):
        with pytest.raises(DataflowError, match="one entry on the nets"):
            run_pareto_tune(
                replace(QUICK_GRID, nets=("mobilenet_v2", "resnet18")),
                out_dir=None,
            )

    def test_default_grid_frontier_spans_assignments(self):
        """On the registered grid at the quick preset the frontier is
        dominance-free and spans >= 3 distinct (backend, precision,
        geometry) assignments."""
        payload = run_pareto_tune(
            replace(PARETO_SWEEP, quick=True), out_dir=None
        )
        frontier = payload["frontier"]
        for point in frontier:
            assert not any(
                dominates(other, point)
                for other in frontier
                if other is not point
            )
        assignments = {
            (
                point["backend"],
                point["precision"],
                point["geometry"]["k"],
                point["geometry"]["n"],
            )
            for point in frontier
        }
        assert len(assignments) >= 3
