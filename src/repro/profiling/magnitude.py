"""Weight-magnitude profiling (the paper's Fig. 7).

For every 16x16 tile the largest |weight| is recorded; the frequency of
each tile-max value (0..128 for INT8) *is* Fig. 7's histogram, and its
2s-unary-halved mean is the workload-dependent burst latency of Sec. V-C
(33 cycles for MobileNetV2, 31 for ResNeXt101 in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.weights import QuantizedModel
from repro.profiling.tiling import tile_max_magnitudes
from repro.unary.encoding import TwosUnaryCode, UnaryCode


@dataclass(frozen=True)
class MagnitudeProfile:
    """Histogram of per-tile maximum weight magnitudes.

    Attributes:
        model: model name.
        histogram: counts indexed by magnitude (length max_magnitude + 1).
        tile_k / tile_n: tile geometry (16x16 in the paper).
    """

    model: str
    histogram: np.ndarray
    tile_k: int
    tile_n: int

    @property
    def total_tiles(self) -> int:
        return int(self.histogram.sum())

    def mean_magnitude(self) -> float:
        """Histogram mean — the paper's "area under the curve normalized
        by the total sum of frequencies"."""
        mags = np.arange(len(self.histogram))
        total = self.histogram.sum()
        return float((mags * self.histogram).sum() / max(total, 1))

    def mean_latency_cycles(self, code: UnaryCode | None = None) -> float:
        """Average burst latency implied by the profile (2s-unary halves
        the magnitude)."""
        code = code if code is not None else TwosUnaryCode()
        mags = np.arange(len(self.histogram))
        cycles = code.cycles_array(mags)
        total = self.histogram.sum()
        return float((cycles * self.histogram).sum() / max(total, 1))

    def to_rows(self) -> list[tuple[int, int]]:
        """(magnitude, frequency) rows — the Fig. 7 series."""
        return [
            (magnitude, int(count))
            for magnitude, count in enumerate(self.histogram)
        ]

    def binned_rows(self, bins: int = 16) -> list[tuple[str, int]]:
        """Coarse bins for compact terminal rendering."""
        edges = np.linspace(0, len(self.histogram), bins + 1, dtype=int)
        rows = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            rows.append(
                (f"{lo}-{hi - 1}", int(self.histogram[lo:hi].sum()))
            )
        return rows


def profile_model_magnitudes(
    model: QuantizedModel, k: int = 16, n: int = 16
) -> MagnitudeProfile:
    """Build the Fig. 7 profile for a quantized model.

    Follows the paper's methodology: the 16x16 max pool runs over each
    layer's *stored* weight tensor (kernels x channels at each window
    position) — grouped convolutions are pooled as stored, not split per
    dataflow group.
    """
    max_magnitude = model.precision.max_magnitude
    histogram = np.zeros(max_magnitude + 1, dtype=np.int64)
    for _layer, codes in model.iter_weight_tensors():
        maxima = tile_max_magnitudes(codes, k, n)
        histogram += np.bincount(
            maxima.reshape(-1), minlength=max_magnitude + 1
        )[: max_magnitude + 1]
    return MagnitudeProfile(
        model=model.name, histogram=histogram, tile_k=k, tile_n=n
    )
