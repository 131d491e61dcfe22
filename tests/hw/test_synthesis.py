"""Tests for the synthesis estimator."""

import pytest

from repro.core.hwmodel import tub_array_netlist
from repro.errors import SynthesisError
from repro.hw.components import register_bank
from repro.hw.netlist import Netlist
from repro.hw.synthesis import synthesize
from repro.hw.wallace import wallace_multiplier
from repro.nvdla.hwmodel import binary_array_netlist


class TestAreaAndCells:
    def test_area_matches_netlist(self):
        block = wallace_multiplier(8)
        result = synthesize(block)
        assert result.area_um2 == pytest.approx(
            block.area_um2(__import__("repro.hw.library",
                                      fromlist=["NANGATE45"]).NANGATE45)
        )

    def test_cell_histogram_reported(self):
        result = synthesize(wallace_multiplier(4))
        assert result.cells_by_type["AND2"] == 16

    def test_area_mm2_conversion(self):
        result = synthesize(wallace_multiplier(8))
        assert result.area_mm2 == pytest.approx(result.area_um2 * 1e-6)


class TestPower:
    def test_power_scales_with_activity(self):
        low = Netlist("low", activity=0.05).add("FA", 100)
        high = Netlist("high", activity=0.50).add("FA", 100)
        assert (
            synthesize(high).dynamic_power_mw
            > 5 * synthesize(low).dynamic_power_mw
        )

    def test_registers_burn_clock_power_even_when_idle(self):
        """DFF clock-pin energy is charged at zero data activity — the
        effect that keeps register-heavy units from huge power savings."""
        bank = register_bank(100, reg_activity=0.0)
        result = synthesize(bank)
        assert result.dynamic_power_mw > 0

    def test_leakage_scales_with_cell_count(self):
        small = synthesize(Netlist("s").add("INV", 10))
        large = synthesize(Netlist("l").add("INV", 10_000))
        ratio = large.leakage_power_mw / small.leakage_power_mw
        assert ratio == pytest.approx(1000, rel=1e-6)

    def test_power_scales_with_frequency(self):
        block = wallace_multiplier(8)
        slow = synthesize(block, clock_mhz=125)
        fast = synthesize(block, clock_mhz=250)
        assert fast.dynamic_power_mw == pytest.approx(
            2 * slow.dynamic_power_mw
        )
        assert fast.leakage_power_mw == pytest.approx(
            slow.leakage_power_mw
        )

    def test_total_is_dynamic_plus_leakage(self):
        result = synthesize(wallace_multiplier(8))
        assert result.total_power_mw == pytest.approx(
            result.dynamic_power_mw + result.leakage_power_mw
        )


class TestTiming:
    def test_meets_timing_at_250mhz(self):
        result = synthesize(wallace_multiplier(8), clock_mhz=250)
        assert result.clock_period_ns == pytest.approx(4.0)
        assert result.meets_timing
        assert result.clock_period_ns > result.critical_path_ns

    def test_fails_timing_at_absurd_clock(self):
        result = synthesize(wallace_multiplier(8), clock_mhz=5000)
        assert not result.meets_timing

    def test_invalid_clock_raises(self):
        with pytest.raises(SynthesisError):
            synthesize(wallace_multiplier(4), clock_mhz=0)


class TestGeometryScaling:
    """Scaling behavior across the autotuner's geometry grid: the
    Pareto search's area/power axis is only meaningful if synthesis
    estimates grow monotonically with the array footprint."""

    #: The design-space autotuner's default geometries, small to large
    #: by PE count (16x4 and 8x8 share k*n = 64 but not k).
    GRID = ((8, 8), (16, 4), (16, 16), (32, 32))

    @staticmethod
    def _reports(array):
        from repro.tune.autotune import array_report

        return [
            array_report(array, k, n, width=8)
            for k, n in TestGeometryScaling.GRID
        ]

    @pytest.mark.parametrize("array", ["binary", "tub"])
    def test_area_monotone_in_pe_count(self, array):
        reports = self._reports(array)
        areas = [r.area_mm2 for r in reports]
        pes = [k * n for k, n in self.GRID]
        for (pe_a, area_a), (pe_b, area_b) in zip(
            zip(pes, areas), zip(pes[1:], areas[1:])
        ):
            if pe_b > pe_a:
                assert area_b > area_a

    @pytest.mark.parametrize("array", ["binary", "tub"])
    def test_power_monotone_in_pe_count(self, array):
        reports = self._reports(array)
        powers = [r.total_power_mw for r in reports]
        pes = [k * n for k, n in self.GRID]
        for (pe_a, p_a), (pe_b, p_b) in zip(
            zip(pes, powers), zip(pes[1:], powers[1:])
        ):
            if pe_b > pe_a:
                assert p_b > p_a

    @pytest.mark.parametrize(
        "netlist_fn",
        [
            pytest.param(binary_array_netlist, id="binary"),
            pytest.param(tub_array_netlist, id="tub"),
        ],
    )
    def test_int4_cell_below_int8(self, netlist_fn):
        narrow = synthesize(netlist_fn(16, 16, "int4"))
        wide = synthesize(netlist_fn(16, 16, "int8"))
        assert narrow.area_mm2 < wide.area_mm2
        assert narrow.total_power_mw < wide.total_power_mw

    @pytest.mark.parametrize("array", ["binary", "tub"])
    def test_timing_and_slack_consistent_across_grid(self, array):
        for report in self._reports(array):
            slack = report.clock_period_ns - report.critical_path_ns
            assert report.meets_timing == (slack >= 0)
