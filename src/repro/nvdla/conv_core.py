"""NVDLA Convolution Core (CC): CSC + CMAC + CACC.

Three execution paths with identical results:

* ``mode="cycle"`` — full handshaked cycle simulation (CBUF, sequencer, MAC
  array, accumulator) with the cell-by-cell CMAC, used for protocol tests.
* ``mode="burst"`` — the same handshaked pipeline driven by the vectorized
  :class:`~repro.nvdla.cmac.VectorCmacUnit` (one matrix product per atom);
  bit-identical outputs, cycles and gating stats at NumPy speed — the fair
  baseline for Tempus Core's burst engine.
* ``mode="fast"`` — vectorised NumPy output plus an analytic cycle count
  (one atom per cycle + pipeline fill), used for whole-CNN profiling.

The analytic count is exact for the binary core because the CMAC sustains
one atom per cycle with no stalls; tests assert cycle-vs-fast agreement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DataflowError
from repro.nvdla.cacc import CaccUnit
from repro.nvdla.cbuf import ConvBuffer
from repro.nvdla.cmac import CmacUnit, VectorCmacUnit
from repro.nvdla.config import CoreConfig
from repro.nvdla.csc import SequenceController
from repro.nvdla.dataflow import ConvShape, golden_conv2d, validate_layer
from repro.sim.handshake import ValidReadyChannel
from repro.sim.kernel import CycleSimulator


@dataclass(frozen=True)
class ConvResult:
    """Output of one convolution layer run.

    Attributes:
        output: (K, OH, OW) exact integer output.
        cycles: total cycles from first issue to last accumulate.
        atoms: atoms scheduled (pipeline work items).
        macs: useful multiply-accumulates in the layer.
        gated_cell_cycles: clock-gated (idle) cell-cycles observed.
    """

    output: np.ndarray
    cycles: int
    atoms: int
    macs: int
    gated_cell_cycles: int = 0


class ConvolutionCore:
    """The baseline binary convolution engine."""

    def __init__(
        self,
        config: CoreConfig | None = None,
        mode: str = "fast",
        cbuf: ConvBuffer | None = None,
    ) -> None:
        """Args:
        config: array geometry/precision (defaults to 16x16 INT8).
        mode: "fast" (vectorised + analytic cycles), "cycle" (tick-level
            handshaked simulation) or "burst" (handshaked simulation with
            the vectorized CMAC).
        cbuf: optional pre-built convolution buffer.
        """
        if mode not in ("fast", "cycle", "burst"):
            raise DataflowError(f"unknown mode {mode!r}")
        self.config = config if config is not None else CoreConfig()
        self.mode = mode
        self.cbuf = cbuf if cbuf is not None else ConvBuffer()

    # ------------------------------------------------------------------
    def _shape_for(
        self,
        activations: np.ndarray,
        weights: np.ndarray,
        stride: int,
        padding: int,
    ) -> ConvShape:
        channels, height, width = activations.shape
        kernels, _, kernel_h, kernel_w = weights.shape
        return ConvShape(
            in_channels=channels,
            in_height=height,
            in_width=width,
            out_channels=kernels,
            kernel_h=kernel_h,
            kernel_w=kernel_w,
            stride=stride,
            padding=padding,
        )

    def schedule_atoms(self, shape: ConvShape) -> int:
        """Total atoms the CSC issues for a layer."""
        return (
            shape.kernel_groups(self.config.k)
            * shape.output_pixels
            * shape.atoms_per_pixel(self.config.n)
        )

    def analytic_cycles(self, shape: ConvShape) -> int:
        """Binary core latency: one atom per cycle plus pipeline drain."""
        return self.schedule_atoms(shape) + self.config.pipeline_latency

    # ------------------------------------------------------------------
    def run_layer(
        self,
        activations: np.ndarray,
        weights: np.ndarray,
        stride: int = 1,
        padding: int = 0,
    ) -> ConvResult:
        """Run one convolution layer.

        Args:
            activations: (C, H, W) integer tensor in the core's precision.
            weights: (K, C, R, S) integer tensor in the core's precision.
        """
        activations = np.asarray(activations)
        weights = np.asarray(weights)
        if activations.ndim != 3 or weights.ndim != 4:
            raise DataflowError(
                "expected (C,H,W) activations and (K,C,R,S) weights"
            )
        shape = self._shape_for(activations, weights, stride, padding)
        activations, weights = validate_layer(
            shape, activations, weights, self.config.precision
        )
        if self.mode == "fast":
            return self._run_fast(shape, activations, weights)
        return self._run_cycle(
            shape, activations, weights, vectorized=self.mode == "burst"
        )

    def _run_fast(
        self,
        shape: ConvShape,
        activations: np.ndarray,
        weights: np.ndarray,
    ) -> ConvResult:
        output = golden_conv2d(
            activations, weights, shape.stride, shape.padding
        )
        atoms = self.schedule_atoms(shape)
        return ConvResult(
            output=output,
            cycles=self.analytic_cycles(shape),
            atoms=atoms,
            macs=shape.macs,
        )

    def _run_cycle(
        self,
        shape: ConvShape,
        activations: np.ndarray,
        weights: np.ndarray,
        vectorized: bool = False,
    ) -> ConvResult:
        self.cbuf.load_layer(
            shape, activations, weights, self.config.precision
        )
        csc_to_mac: ValidReadyChannel = ValidReadyChannel("csc->cmac")
        mac_to_acc: ValidReadyChannel = ValidReadyChannel("cmac->cacc")
        csc = SequenceController(self.config, shape, self.cbuf, csc_to_mac)
        cmac = (
            VectorCmacUnit(self.config, csc_to_mac, mac_to_acc)
            if vectorized
            else CmacUnit(self.config, csc_to_mac, mac_to_acc)
        )
        cacc = CaccUnit(self.config, shape, mac_to_acc)
        sim = CycleSimulator([csc, cmac, cacc])
        sim.reset()
        atoms = self.schedule_atoms(shape)
        sim.run_until(
            lambda: cacc.finished and not mac_to_acc.valid,
            max_cycles=atoms * 4 + 64,
        )
        return ConvResult(
            output=cacc.output,
            cycles=sim.cycle,
            atoms=atoms,
            macs=shape.macs,
            gated_cell_cycles=cmac.gated_cell_cycles,
        )
