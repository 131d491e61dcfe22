"""Tests for the binary datapath netlist builders."""

import pytest

from repro.hw.synthesis import synthesize
from repro.nvdla.hwmodel import (
    accumulator_width,
    binary_array_netlist,
    binary_pe_cell_netlist,
    cmac_unit_netlist,
)
from repro.utils.intrange import INT2, INT4, INT8


def child_counts(netlist):
    """Instance count of each direct child, by child name."""
    return {child.name: count for child, count in netlist.children}


class TestAccumulatorWidth:
    def test_int8_n16(self):
        assert accumulator_width(INT8, 16) == 20

    def test_single_lane(self):
        assert accumulator_width(INT8, 1) == 17


class TestBinaryCell:
    def test_has_n_multipliers(self):
        cell = binary_pe_cell_netlist(INT8, 16)
        assert child_counts(cell)["mult"] == 16

    def test_area_scales_with_n(self):
        small = synthesize(binary_pe_cell_netlist(INT8, 16)).area_um2
        large = synthesize(binary_pe_cell_netlist(INT8, 256)).area_um2
        assert 12 < large / small < 18  # near-linear in n

    def test_area_scales_with_precision(self):
        int4 = synthesize(binary_pe_cell_netlist(INT4, 16)).area_um2
        int8 = synthesize(binary_pe_cell_netlist(INT8, 16)).area_um2
        assert int8 > 2 * int4

    def test_meets_250mhz(self):
        assert synthesize(binary_pe_cell_netlist(INT8, 64)).meets_timing


class TestBinaryArrayAndUnit:
    def test_array_is_k_cells(self):
        array = binary_array_netlist(16, 16, INT8)
        assert child_counts(array)["pe_cell"] == 16

    def test_array_area_about_k_times_cell(self):
        cell = synthesize(binary_pe_cell_netlist(INT8, 16)).area_um2
        array = synthesize(binary_array_netlist(16, 16, INT8)).area_um2
        assert array == pytest.approx(16 * cell, rel=0.05)

    def test_unit_larger_than_array(self):
        array = synthesize(binary_array_netlist(16, 4, INT4)).area_um2
        unit = synthesize(cmac_unit_netlist(16, 4, INT4)).area_um2
        assert unit > array

    def test_unit_has_connections_for_pnr(self):
        unit = cmac_unit_netlist(16, 4, INT4)
        assert len(unit.connections) >= 4

    @pytest.mark.parametrize("precision", [INT2, INT4, INT8])
    def test_all_precisions_buildable(self, precision):
        result = synthesize(cmac_unit_netlist(16, 4, precision))
        assert result.area_um2 > 0
        assert result.meets_timing
