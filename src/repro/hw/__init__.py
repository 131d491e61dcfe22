"""Gate-level hardware modeling substrate.

This package replaces the paper's Synopsys Design Compiler + Cadence Innovus
flow with an analytical estimator:

* :mod:`repro.hw.cells` / :mod:`repro.hw.library` — a NanGate45-like standard
  cell library (area, leakage, switching energy, delay per cell).
* :mod:`repro.hw.netlist` — hierarchical cell-multiset netlists with
  connectivity annotations.
* :mod:`repro.hw.components`, :mod:`repro.hw.wallace`,
  :mod:`repro.hw.adder_tree` — structural generators for the datapath blocks
  both cores elaborate to (DesignWare-style multipliers, CSA trees,
  registers, temporal encoders, handshake FSMs).
* :mod:`repro.hw.synthesis` — post-synthesis area/power/timing estimates at a
  fixed 250 MHz clock (the paper's operating point).
* :mod:`repro.hw.pnr` — floorplan / placement / routing estimates and layout
  density maps standing in for the Innovus results (Table III, Fig. 6).

Absolute numbers are estimates.
"""

from repro.hw.library import NANGATE45, CellLibrary
from repro.hw.netlist import Connection, Netlist
from repro.hw.synthesis import SynthesisResult, synthesize
from repro.hw.pnr import PnrResult, place_and_route

__all__ = [
    "NANGATE45",
    "CellLibrary",
    "Netlist",
    "Connection",
    "SynthesisResult",
    "synthesize",
    "PnrResult",
    "place_and_route",
]
