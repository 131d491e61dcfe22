"""Tests for the Wallace multiplier structural model."""

import pytest

from repro.errors import SynthesisError
from repro.hw.library import NANGATE45
from repro.hw.wallace import (
    multiplier_column_heights,
    wallace_multiplier,
    wallace_reduction,
)


class TestColumnHeights:
    def test_8x8_heights(self):
        heights = multiplier_column_heights(8)
        assert len(heights) == 15
        assert heights[0] == 1
        assert heights[7] == 8  # middle column
        assert heights[-1] == 1

    def test_total_partial_products(self):
        for width in (2, 4, 8):
            assert sum(multiplier_column_heights(width)) == width * width

    def test_invalid_width(self):
        with pytest.raises(SynthesisError):
            multiplier_column_heights(0)


class TestReduction:
    def test_reduces_to_height_two(self):
        stats = wallace_reduction(multiplier_column_heights(8))
        assert stats.stages >= 3  # Wallace needs >= 4 stages for 8 rows
        assert stats.full_adders > 0

    def test_already_reduced_no_cost(self):
        stats = wallace_reduction([2, 2, 2])
        assert stats.full_adders == 0
        assert stats.stages == 0

    def test_conservation_of_bits(self):
        """Each FA removes exactly one bit from the matrix, each HA none
        (3->2 and 2->2); final height <= 2 per column."""
        heights = multiplier_column_heights(6)
        stats = wallace_reduction(heights)
        total_bits = sum(heights)
        # 36 pp bits reduced to at most 2*(11+1) final bits
        assert total_bits - stats.full_adders <= 2 * (len(heights) + 1)

    def test_negative_height_rejected(self):
        with pytest.raises(SynthesisError):
            wallace_reduction([-1])


class TestMultiplier:
    def test_area_grows_quadratically(self):
        area4 = wallace_multiplier(4).area_um2(NANGATE45)
        area8 = wallace_multiplier(8).area_um2(NANGATE45)
        assert 2.5 < area8 / area4 < 6.0

    def test_8x8_area_plausible_for_45nm(self):
        """DesignWare 8x8 multipliers synthesize to roughly 300-600 um2 in
        NanGate45; the model should land in that neighbourhood."""
        area = wallace_multiplier(8).area_um2(NANGATE45)
        assert 250 < area < 700

    def test_partial_product_gates(self):
        assert wallace_multiplier(8).cells["AND2"] == 64

    def test_signed_adds_correction_cells(self):
        signed = wallace_multiplier(8, signed=True).cell_counts()
        unsigned = wallace_multiplier(8, signed=False).cell_counts()
        signed, unsigned = sum(signed.values()), sum(unsigned.values())
        assert signed > unsigned

    def test_width_one_single_gate(self):
        block = wallace_multiplier(1)
        assert block.cells["AND2"] == 1

    def test_depth_fits_250mhz(self):
        assert wallace_multiplier(8).depth_ps < 4000.0

    def test_invalid_width(self):
        with pytest.raises(SynthesisError):
            wallace_multiplier(0)
