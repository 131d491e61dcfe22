"""Post-synthesis area / power / timing estimation.

Mirrors what the paper reports from Synopsys Design Compiler at a fixed
250 MHz clock on NanGate45:

* **cell area** = Σ placed cell footprints,
* **total power** = dynamic (activity × per-toggle energy × f, plus
  unconditional clock-pin energy on every flip-flop) + leakage,
* **timing** = worst register-to-register combinational segment + clk-to-q
  + setup, checked against the 4 ns period.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.errors import SynthesisError
from repro.hw.library import NANGATE45, CellLibrary
from repro.hw.netlist import Netlist

#: Flip-flop timing overhead added to every path (clk->q + setup), ps.
_SEQUENCING_OVERHEAD_PS = 130.0


@dataclass(frozen=True)
class SynthesisResult:
    """Post-synthesis report for one design.

    Attributes:
        design: module name.
        clock_mhz: target clock.
        area_um2: standard-cell area.
        cell_count: total leaf cells.
        cells_by_type: flattened cell histogram.
        dynamic_power_mw: activity-based switching power.
        leakage_power_mw: static power.
        critical_path_ns: estimated worst path including sequencing overhead.
    """

    design: str
    clock_mhz: float
    area_um2: float
    cell_count: int
    cells_by_type: Counter
    dynamic_power_mw: float
    leakage_power_mw: float
    critical_path_ns: float

    @property
    def total_power_mw(self) -> float:
        return self.dynamic_power_mw + self.leakage_power_mw

    @property
    def area_mm2(self) -> float:
        return self.area_um2 * 1e-6

    @property
    def clock_period_ns(self) -> float:
        return 1e3 / self.clock_mhz

    @property
    def meets_timing(self) -> bool:
        return self.critical_path_ns <= self.clock_period_ns


def synthesize(
    netlist: Netlist,
    library: CellLibrary = NANGATE45,
    clock_mhz: float = 250.0,
    default_activity: float = 0.15,
    default_reg_activity: float = 0.10,
) -> SynthesisResult:
    """Estimate post-synthesis metrics for a netlist.

    Args:
        netlist: the design to evaluate.
        library: standard-cell library (defaults to the NanGate45 model).
        clock_mhz: clock frequency — the paper fixes 250 MHz.
        default_activity: toggle rate for modules without an annotation.
        default_reg_activity: flip-flop data-toggle rate fallback.
    """
    if clock_mhz <= 0:
        raise SynthesisError(f"clock must be positive, got {clock_mhz} MHz")
    freq_hz = clock_mhz * 1e6

    dynamic_w = 0.0
    leakage_w = 0.0
    for cell_name, count, activity, reg_activity in netlist.iter_effective(
        default_activity, default_reg_activity
    ):
        cell = library[cell_name]
        leakage_w += count * cell.leakage_nw * 1e-9
        if cell.sequential:
            per_cycle_j = cell.clk_energy_fj * 1e-15
            data_j = cell.energy_fj * 1e-15 * reg_activity
            dynamic_w += count * (per_cycle_j + data_j) * freq_hz
        else:
            dynamic_w += (
                count * cell.energy_fj * 1e-15 * activity * freq_hz
            )

    counts = netlist.cell_counts()
    critical_ps = netlist.max_depth_ps() + _SEQUENCING_OVERHEAD_PS
    return SynthesisResult(
        design=netlist.name,
        clock_mhz=clock_mhz,
        area_um2=netlist.area_um2(library),
        cell_count=sum(counts.values()),
        cells_by_type=counts,
        dynamic_power_mw=dynamic_w * 1e3,
        leakage_power_mw=leakage_w * 1e3,
        critical_path_ns=critical_ps * 1e-3,
    )
