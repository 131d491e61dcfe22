"""Tests for the P&R flow and layout rendering."""

import pytest

from repro.hw.layout import LayoutGrid
from repro.hw.netlist import Netlist
from repro.hw.pnr import place_and_route
from repro.utils.intrange import INT4


def small_unit() -> Netlist:
    unit = Netlist("unit")
    unit.add_child(Netlist("pe").add("FA", 40).add("DFF", 8), 4)
    unit.add_child(Netlist("regs").add("DFF", 64))
    unit.connect("pe", "regs", 12)
    return unit


class TestPlaceAndRoute:
    def test_die_bigger_than_cells(self):
        result = place_and_route(small_unit(), utilization=0.70)
        assert result.die_area_mm2 > result.synthesis.area_mm2

    def test_utilization_matches_request(self):
        result = place_and_route(small_unit(), utilization=0.70)
        assert result.floorplan.utilization == pytest.approx(0.70)

    def test_total_power_includes_wires(self):
        result = place_and_route(small_unit())
        assert (
            result.total_power_mw
            > result.synthesis.total_power_mw
        )

    def test_post_route_timing_derated(self):
        result = place_and_route(small_unit())
        assert result.critical_path_ns > result.synthesis.critical_path_ns

    def test_deterministic(self):
        a = place_and_route(small_unit(), seed=7)
        b = place_and_route(small_unit(), seed=7)
        assert a.routing.total_wirelength_um == pytest.approx(
            b.routing.total_wirelength_um
        )

    def test_design_name_propagates(self):
        assert place_and_route(small_unit()).design == "unit"


class TestLayoutGrid:
    def test_grid_shape(self):
        result = place_and_route(small_unit(), grid_resolution=16)
        assert result.layout.occupancy.shape == (16, 16)

    def test_mean_utilization_near_target(self):
        """Rasterised occupancy should be in the ballpark of the 70%
        floorplan utilization."""
        result = place_and_route(small_unit(), grid_resolution=24)
        assert 0.3 < result.layout.utilization() < 1.0

    def test_render_has_grid_rows(self):
        result = place_and_route(small_unit(), grid_resolution=8)
        text = result.layout.render("title")
        assert text.startswith("title")
        assert text.count("|") >= 16  # 8 rows, 2 bars each

    def test_denser_design_higher_occupancy(self):
        """A PCU netlist fills less of the same-resolution raster than the
        CMAC netlist at equal utilization targets (different die sizes)."""
        from repro.core.hwmodel import pcu_unit_netlist
        from repro.nvdla.hwmodel import cmac_unit_netlist

        cmac = place_and_route(cmac_unit_netlist(4, 4, INT4))
        pcu = place_and_route(pcu_unit_netlist(4, 4, INT4))
        assert pcu.die_area_mm2 < cmac.die_area_mm2
