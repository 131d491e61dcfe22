"""Workload-dependent latency: full-model cycle counts on both cores.

Combines the analytic burst model (:mod:`repro.core.latency`) with the
model zoo: for every conv layer (per group for grouped convolutions) the
binary core spends one cycle per atom while Tempus Core spends the tile's
burst length — yielding end-to-end inference cycle counts and the
latency-ratio view of the binary-vs-tub trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.latency import burst_cycle_map
from repro.models.weights import QuantizedModel
from repro.nvdla.config import CoreConfig
from repro.profiling.tiling import group_stack
from repro.unary.encoding import TwosUnaryCode, UnaryCode


@dataclass(frozen=True)
class LayerLatency:
    """Cycle counts of one conv layer on both cores.

    Attributes:
        layer: layer name.
        binary_cycles: baseline CC cycles (atoms).
        tempus_cycles: Tempus Core cycles (sum of bursts).
        mean_burst: average burst length of the layer's tiles.
    """

    layer: str
    binary_cycles: int
    tempus_cycles: int
    mean_burst: float

    @property
    def slowdown(self) -> float:
        """Tempus cycles / binary cycles (> 1; bounded by the worst-case
        burst)."""
        return self.tempus_cycles / max(self.binary_cycles, 1)


@dataclass(frozen=True)
class WorkloadLatency:
    """Whole-model latency summary."""

    model: str
    config: CoreConfig
    layers: tuple[LayerLatency, ...]

    @property
    def binary_cycles(self) -> int:
        return sum(layer.binary_cycles for layer in self.layers)

    @property
    def tempus_cycles(self) -> int:
        return sum(layer.tempus_cycles for layer in self.layers)

    @property
    def slowdown(self) -> float:
        return self.tempus_cycles / max(self.binary_cycles, 1)

    def mean_burst_cycles(self) -> float:
        """Tile-count-weighted mean burst length across the model."""
        total_cycles = 0.0
        total_tiles = 0
        for layer in self.layers:
            # mean_burst * tiles recovers the tile sum per pixel.
            tiles = layer.tempus_cycles / max(layer.mean_burst, 1e-12)
            total_cycles += layer.tempus_cycles
            total_tiles += tiles
        return total_cycles / max(total_tiles, 1e-12)


def model_workload_latency(
    model: QuantizedModel,
    config: CoreConfig | None = None,
    code: UnaryCode | None = None,
) -> WorkloadLatency:
    """Compute per-layer and total cycles for a quantized model.

    Args:
        model: synthesized + quantized CNN.
        config: array geometry (defaults to the paper's 16x16 INT8).
        code: unary code (default 2s-unary).
    """
    config = config if config is not None else CoreConfig()
    code = code if code is not None else TwosUnaryCode()
    rows: list[LayerLatency] = []
    for layer, codes in model.iter_weight_tensors():
        shape = layer.conv_shape()
        pixels = shape.output_pixels
        atoms_per_pixel = (
            shape.kernel_groups(config.k) * shape.atoms_per_pixel(config.n)
        )
        bursts = burst_cycle_map(
            group_stack(codes, layer.groups), config, code
        )
        per_pixel = int(bursts.sum())
        rows.append(
            LayerLatency(
                layer=layer.name,
                binary_cycles=layer.groups * atoms_per_pixel * pixels,
                tempus_cycles=per_pixel * pixels,
                mean_burst=per_pixel / max(bursts.size, 1),
            )
        )
    return WorkloadLatency(
        model=model.name, config=config, layers=tuple(rows)
    )
