"""Tests for the tub datapath netlist builders."""

import pytest

from repro.core.hwmodel import (
    contribution_width,
    pcu_unit_netlist,
    tub_array_netlist,
    tub_pe_cell_netlist,
)
from repro.hw.synthesis import synthesize
from repro.nvdla.hwmodel import (
    binary_array_netlist,
    binary_pe_cell_netlist,
    cmac_unit_netlist,
)
from repro.utils.intrange import INT2, INT4, INT8


class TestTubCell:
    def test_contribution_width(self):
        assert contribution_width(INT8) == 10

    def test_no_multipliers_in_tub_cell(self):
        counts = tub_pe_cell_netlist(INT8, 16).cell_counts()
        # a Wallace multiplier would add 64+ AND2 per lane
        assert counts.get("AND2", 0) < 16 * 20

    def test_tub_smaller_than_binary_everywhere(self):
        for precision in (INT2, INT4, INT8):
            for n in (4, 16, 64):
                tub = synthesize(tub_pe_cell_netlist(precision, n))
                binary = synthesize(binary_pe_cell_netlist(precision, n))
                assert tub.area_um2 < binary.area_um2
                assert tub.total_power_mw < binary.total_power_mw

    def test_int8_advantage_larger_than_int4(self):
        """The paper's trend: higher precision -> bigger tub win (the
        binary multiplier grows quadratically, the tub lane linearly)."""
        def reduction(precision):
            tub = synthesize(tub_pe_cell_netlist(precision, 64))
            binary = synthesize(binary_pe_cell_netlist(precision, 64))
            return 1 - tub.area_um2 / binary.area_um2

        assert reduction(INT8) > reduction(INT4) > reduction(INT2)

    def test_meets_250mhz(self):
        assert synthesize(tub_pe_cell_netlist(INT8, 1024)).meets_timing


class TestTubArrayAndPcu:
    def test_array_is_k_cells(self):
        assert tub_array_netlist(16, 16, INT8).child_count("pe_cell") == 16

    def test_pcu_bigger_than_array(self):
        array = synthesize(tub_array_netlist(16, 4, INT4)).area_um2
        unit = synthesize(pcu_unit_netlist(16, 4, INT4)).area_um2
        assert unit > array

    def test_pcu_smaller_than_cmac(self):
        for precision in (INT2, INT4, INT8):
            pcu = synthesize(pcu_unit_netlist(16, 4, precision))
            cmac = synthesize(cmac_unit_netlist(16, 4, precision))
            assert pcu.area_um2 < cmac.area_um2

    def test_area_advantage_holds_at_every_scale(self):
        """Fig. 9's driver: the iso-area ratio stays well above 1 at every
        n.  (The paper's ratio *grows* with n because its tub cell area
        scales sublinearly; a replicated-lane structural model yields a
        near-flat ratio — the fig9 experiment's notes record the
        deviation.)"""
        def ratio(n):
            binary = synthesize(binary_pe_cell_netlist(INT8, n))
            tub = synthesize(tub_pe_cell_netlist(INT8, n))
            return binary.area_um2 / tub.area_um2

        ratios = [ratio(n) for n in (4, 64, 1024)]
        assert all(r > 2.0 for r in ratios)
        assert max(ratios) / min(ratios) < 1.5  # near-flat, by construction

    def test_pcu_has_burst_controller(self):
        unit = pcu_unit_netlist(16, 4, INT8)
        assert unit.child("burst_ctrl") is not None

    def test_pcu_connections_for_pnr(self):
        assert len(pcu_unit_netlist(16, 4, INT4).connections) >= 5

    def test_array_power_reduction_shape(self):
        """Fig. 4: at 16x16 INT8 the tub array saves both area and power,
        with area savings at least as large as the paper's ordering
        requires (tub < binary by a wide margin)."""
        binary = synthesize(binary_array_netlist(16, 16, INT8))
        tub = synthesize(tub_array_netlist(16, 16, INT8))
        assert tub.area_um2 < 0.5 * binary.area_um2
        assert tub.total_power_mw < 0.6 * binary.total_power_mw
