"""Workload energy model (the paper's Sec. V-C).

Energy per k-partial-sum burst on a k x n array:

* binary CC: one cycle at the binary array's power,
  ``E = P_binary * T_clk``  (the paper: 3.8 mW x 4 ns ~ 15 pJ at INT8);
* Tempus Core: the profiled burst length at the tub array's power,
  ``E = P_tub * cycles * T_clk``  (187 pJ for MobileNetV2's 33 cycles).

The paper notes the all-PEs-active assumption overestimates tub energy:
silent (zero-weight) lanes neither pulse nor load the tree.  The
``silent_adjusted`` figure scales the lane-local share of array power by
the measured active-PE fraction — the optimistic bound the paper points to
as future clock-gating headroom.

Per-network energy (:func:`network_energy`): the runtime's compute
backends each name the synthesized array that powers them
(``"binary"`` — the CMAC grid — or ``"tub"`` — the temporal PE array),
and a whole inference costs ``P_array x cycles x T_clk``.  The power is
that of the *deployed* silicon — the geometry synthesized at
:data:`DEPLOYED_WIDTH` (INT8, the paper's taped-out part): running a
lower-precision profile does not re-synthesize the array, it only
shortens the temporal backends' bursts.  That is the paper's scaling
story — and it is why binary energy is precision-flat (same power, same
value-independent cycles) while temporal energy drops with precision.
"""

from __future__ import annotations

from dataclasses import dataclass

from functools import lru_cache

from repro.core.hwmodel import tub_array_netlist, tub_pe_cell_netlist
from repro.errors import DataflowError
from repro.hw.synthesis import SynthesisResult, synthesize
from repro.nvdla.config import CoreConfig
from repro.nvdla.hwmodel import binary_array_netlist
from repro.utils.intrange import int_spec


@lru_cache(maxsize=8)
def _lane_power_share(width: int, n: int) -> float:
    """Fraction of tub-cell power that scales with active lanes (count
    registers, encoders, operand gating); the remainder (tree,
    accumulator, broadcast) switches regardless.  Measured from the
    structural module breakdown of the actual cell netlist."""
    from repro.hw.breakdown import lane_power_share
    from repro.utils.intrange import int_spec

    return lane_power_share(tub_pe_cell_netlist(int_spec(width), n))


@dataclass(frozen=True)
class EnergyComparison:
    """Energy of one workload on both arrays.

    Attributes:
        workload: model name (or "worst-case").
        precision: operand format name.
        binary_power_mw / tub_power_mw: measured array powers.
        burst_cycles: workload-dependent tub burst length.
        active_fraction: mean active-PE share (1.0 = no silent lanes).
        clock_mhz: operating point.
    """

    workload: str
    precision: str
    binary_power_mw: float
    tub_power_mw: float
    burst_cycles: float
    active_fraction: float = 1.0
    clock_mhz: float = 250.0

    @property
    def clock_period_ns(self) -> float:
        return 1e3 / self.clock_mhz

    @property
    def binary_energy_pj(self) -> float:
        """One partial-sum generation on the binary array (1 cycle)."""
        return self.binary_power_mw * self.clock_period_ns

    @property
    def tub_energy_pj(self) -> float:
        """One burst on the tub array (all PEs assumed active)."""
        return self.tub_power_mw * self.burst_cycles * self.clock_period_ns

    #: Lane-local power share used by the silent-PE adjustment (filled by
    #: :func:`workload_energy` from the structural breakdown; the default
    #: matches the measured 16x16 INT8 cell).
    lane_power_share: float = 0.75

    @property
    def tub_energy_silent_adjusted_pj(self) -> float:
        """Burst energy with silent lanes' local power removed."""
        scale = (
            1.0
            - self.lane_power_share * (1.0 - self.active_fraction)
        )
        return self.tub_energy_pj * scale

    @property
    def energy_gap(self) -> float:
        """tub energy / binary energy (the paper: 11.7x at INT8,
        2.3x at INT4)."""
        return self.tub_energy_pj / self.binary_energy_pj


def array_powers(
    config: CoreConfig, clock_mhz: float = 250.0
) -> tuple[SynthesisResult, SynthesisResult]:
    """Synthesize both k x n arrays and return their reports
    (binary, tub)."""
    binary = synthesize(
        binary_array_netlist(config.k, config.n, config.precision),
        clock_mhz=clock_mhz,
    )
    tub = synthesize(
        tub_array_netlist(config.k, config.n, config.precision),
        clock_mhz=clock_mhz,
    )
    return binary, tub


#: Bit width of the deployed silicon the per-network energy model
#: assumes: the INT8-capable arrays the paper synthesizes and P&Rs.
#: Lower-precision profiles run on the same part (shorter bursts, same
#: per-cycle array power) — they do not shrink the silicon.
DEPLOYED_WIDTH = 8

#: Operating point for per-network energy (the paper's synthesis
#: corner).
DEFAULT_CLOCK_MHZ = 250.0


@lru_cache(maxsize=64)
def array_power_mw(
    array: str,
    k: int,
    n: int,
    width: int = DEPLOYED_WIDTH,
    clock_mhz: float = DEFAULT_CLOCK_MHZ,
) -> float:
    """Synthesized total power of one k x n array (cached — synthesis
    is deterministic, so one run per geometry/array suffices).

    Args:
        array: "binary" (CMAC grid) or "tub" (temporal PE array).
        k / n: array geometry.
        width: operand bit width the silicon is provisioned for.
        clock_mhz: synthesis operating point.
    """
    precision = int_spec(width)
    if array == "binary":
        netlist = binary_array_netlist(k, n, precision)
    elif array == "tub":
        netlist = tub_array_netlist(k, n, precision)
    else:
        raise DataflowError(
            f"unknown power array {array!r} (expected 'binary' or 'tub')"
        )
    return synthesize(netlist, clock_mhz=clock_mhz).total_power_mw


def network_energy(
    array: str,
    cycles_per_image: float,
    config: CoreConfig,
    clock_mhz: float = DEFAULT_CLOCK_MHZ,
) -> dict:
    """Per-image energy of a whole-network inference on one array.

    ``E = P_array x cycles x T_clk`` with the deployed
    (:data:`DEPLOYED_WIDTH`) array's synthesized power — mW x ns = pJ.

    Returns a JSON-ready record: ``{"array", "power_mw",
    "deployed_precision", "clock_mhz", "pj_per_image"}``.
    """
    if cycles_per_image < 0:
        raise DataflowError("cycles_per_image must be non-negative")
    power = array_power_mw(array, config.k, config.n, DEPLOYED_WIDTH,
                           clock_mhz)
    period_ns = 1e3 / clock_mhz
    return {
        "array": array,
        "power_mw": power,
        "deployed_precision": int_spec(DEPLOYED_WIDTH).name,
        "clock_mhz": clock_mhz,
        "pj_per_image": power * float(cycles_per_image) * period_ns,
    }


def workload_energy(
    workload: str,
    config: CoreConfig,
    burst_cycles: float,
    active_fraction: float = 1.0,
    clock_mhz: float = 250.0,
) -> EnergyComparison:
    """Build the Sec. V-C comparison for one workload.

    Args:
        workload: label ("MobileNetV2", "worst-case", ...).
        config: array geometry + precision.
        burst_cycles: profiled mean burst length (e.g. Fig. 7's mean).
        active_fraction: mean active-PE share from the Fig. 8 profile.
    """
    binary, tub = array_powers(config, clock_mhz)
    return EnergyComparison(
        workload=workload,
        precision=config.precision.name,
        binary_power_mw=binary.total_power_mw,
        tub_power_mw=tub.total_power_mw,
        burst_cycles=burst_cycles,
        active_fraction=active_fraction,
        clock_mhz=clock_mhz,
        lane_power_share=_lane_power_share(
            config.precision.width, config.n
        ),
    )
