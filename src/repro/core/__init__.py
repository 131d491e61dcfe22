"""Tempus Core: the paper's temporal-unary-binary convolution engine.

A drop-in replacement for NVDLA's Convolution Core: the modified CSC
(:mod:`repro.core.csc`) feeds transposed feature atoms, the PCU
(:mod:`repro.core.pcu`) executes each atom as a multi-cycle tub burst on a
k x n array of tub multipliers (:mod:`repro.core.tub_multiplier`,
:mod:`repro.core.pe_cell`), and the unmodified CACC accumulates partial
sums.  :class:`repro.core.tempus_core.TempusCore` exposes the same
``run_layer`` API as :class:`repro.nvdla.conv_core.ConvolutionCore` and
produces bit-identical outputs.
"""

from repro.core.latency import (
    burst_cycle_map,
    layer_burst_cycles,
    worst_case_cycles,
)
from repro.core.pe_cell import TubCellBlock, TubPeCell
from repro.core.pcu import PcuUnit, VectorPcuUnit
from repro.core.tempus_core import TempusCore
from repro.core.tub_multiplier import TubLaneBlock, TubMultiplier, tub_multiply

__all__ = [
    "TubMultiplier",
    "TubLaneBlock",
    "tub_multiply",
    "TubPeCell",
    "TubCellBlock",
    "PcuUnit",
    "VectorPcuUnit",
    "TempusCore",
    "worst_case_cycles",
    "burst_cycle_map",
    "layer_burst_cycles",
]
