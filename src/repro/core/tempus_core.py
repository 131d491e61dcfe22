"""Tempus Core: the drop-in tub convolution engine.

Same public API as :class:`repro.nvdla.conv_core.ConvolutionCore` — same
inputs, bit-identical outputs, different latency/energy profile.  Three
execution modes:

* ``fast`` — exact NumPy output plus the analytic burst-cycle model; no
  per-atom simulation at all.  Use for whole-CNN profiling where only
  totals matter.
* ``cycle`` — tick-level handshaked CSC -> PCU -> CACC simulation: every
  clock edge ticks every lane.  O(cycles x k x n) interpreter work; use
  only for waveform rendering (:class:`~repro.core.tub_multiplier.TubTrace`
  style) and handshake/protocol tests.
* ``burst`` — the vectorized burst-level engine: the same handshaked
  pipeline, but the PCU executes each k x n atom as one closed-form NumPy
  burst (:class:`~repro.core.pcu.VectorPcuUnit`) and the simulator jumps
  the clock by the burst span (:meth:`CycleSimulator.run_events`).
  Output, cycles, atoms and gated_cell_cycles are bit-identical to
  ``cycle`` at NumPy speed (50x+ on 16x16 INT8 layers) — the default
  choice whenever per-burst statistics are wanted.

Tests assert all three modes agree exactly.
"""

from __future__ import annotations

import numpy as np

from repro.core.csc import TempusSequenceController
from repro.core.latency import layer_burst_cycles
from repro.core.pcu import PcuUnit, VectorPcuUnit
from repro.errors import DataflowError
from repro.nvdla.cacc import CaccUnit
from repro.nvdla.cbuf import ConvBuffer
from repro.nvdla.config import CoreConfig
from repro.nvdla.conv_core import ConvResult
from repro.nvdla.dataflow import ConvShape, golden_conv2d, validate_layer
from repro.sim.handshake import ValidReadyChannel
from repro.sim.kernel import CycleSimulator
from repro.unary.encoding import TwosUnaryCode, UnaryCode


class TempusCore:
    """The temporal-unary-binary convolution engine."""

    def __init__(
        self,
        config: CoreConfig | None = None,
        mode: str = "fast",
        code: UnaryCode | None = None,
        cbuf: ConvBuffer | None = None,
    ) -> None:
        """Args:
        config: array geometry/precision (defaults to 16x16 INT8).
        mode: "fast", "cycle" or "burst" (see module docstring).
        code: unary code for weight streams (default 2s-unary).
        cbuf: optional pre-built convolution buffer.
        """
        if mode not in ("fast", "cycle", "burst"):
            raise DataflowError(f"unknown mode {mode!r}")
        self.config = config if config is not None else CoreConfig()
        self.mode = mode
        self.code = code if code is not None else TwosUnaryCode()
        self.cbuf = cbuf if cbuf is not None else ConvBuffer()

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
        return (
            shape.kernel_groups(self.config.k)
            * shape.output_pixels
            * shape.atoms_per_pixel(self.config.n)
        )

    def analytic_cycles(self, shape: ConvShape, weights: np.ndarray) -> int:
        """Tempus latency: sum of per-atom burst lengths plus pipeline
        fill/drain (one issue cycle + one output-register stage)."""
        bursts = layer_burst_cycles(shape, weights, self.config, self.code)
        return bursts + self.config.pipeline_latency + 1

    def run_layer(
        self,
        activations: np.ndarray,
        weights: np.ndarray,
        stride: int = 1,
        padding: int = 0,
    ) -> ConvResult:
        """Run one convolution layer (same contract as the binary core)."""
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
        if self.mode == "burst":
            return self._run_burst(shape, activations, weights)
        return self._run_cycle(shape, activations, weights)

    def _run_fast(
        self,
        shape: ConvShape,
        activations: np.ndarray,
        weights: np.ndarray,
    ) -> ConvResult:
        output = golden_conv2d(
            activations, weights, shape.stride, shape.padding
        )
        return ConvResult(
            output=output,
            cycles=self.analytic_cycles(shape, weights),
            atoms=self.schedule_atoms(shape),
            macs=shape.macs,
        )

    def _run_burst(
        self,
        shape: ConvShape,
        activations: np.ndarray,
        weights: np.ndarray,
    ) -> ConvResult:
        """The vectorized burst-level engine: same pipeline as ``cycle``,
        one event per atom, clock jumps of a whole burst at a time."""
        return self._run_sim(shape, activations, weights, vectorized=True)

    def _run_cycle(
        self,
        shape: ConvShape,
        activations: np.ndarray,
        weights: np.ndarray,
    ) -> ConvResult:
        return self._run_sim(shape, activations, weights, vectorized=False)

    def _run_sim(
        self,
        shape: ConvShape,
        activations: np.ndarray,
        weights: np.ndarray,
        vectorized: bool,
    ) -> ConvResult:
        self.cbuf.load_layer(
            shape, activations, weights, self.config.precision
        )
        csc_to_pcu: ValidReadyChannel = ValidReadyChannel("csc->pcu")
        pcu_to_acc: ValidReadyChannel = ValidReadyChannel("pcu->cacc")
        csc = TempusSequenceController(
            self.config, shape, self.cbuf, csc_to_pcu
        )
        pcu_cls = VectorPcuUnit if vectorized else PcuUnit
        pcu = pcu_cls(self.config, csc_to_pcu, pcu_to_acc, code=self.code)
        cacc = CaccUnit(self.config, shape, pcu_to_acc)
        sim = CycleSimulator([csc, pcu, cacc])
        sim.reset()
        # Deadlock budget: worst burst of the *configured code* (pure
        # unary streams twice as long as 2s-unary) plus per-atom slack.
        worst = self.code.cycles_for_magnitude(
            self.config.precision.max_magnitude
        )
        atoms = self.schedule_atoms(shape)
        budget = atoms * (worst + self.config.burst_overhead + 2) + 64
        done = lambda: cacc.finished and not pcu_to_acc.valid  # noqa: E731
        if vectorized:
            sim.run_events(
                done, span=lambda: pcu.last_span, max_cycles=budget
            )
        else:
            sim.run_until(done, max_cycles=budget)
        return ConvResult(
            output=cacc.output,
            cycles=sim.cycle,
            atoms=atoms,
            macs=shape.macs,
            gated_cell_cycles=pcu.silent_lane_cycles,
        )
