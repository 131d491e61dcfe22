"""Sparsity profiling (the paper's Table I and Fig. 8).

Table I: fraction of exactly-zero weights per INT8 model ("word
sparsity").  Fig. 8: the distribution of zero weights per 16x16 tile —
each zero weight is a *silent PE* whose tub lane never pulses during the
burst (the paper's average: 6 silent PEs per tile for MobileNetV2, 2 for
ResNeXt101).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.weights import QuantizedModel
from repro.profiling.tiling import tile_zero_stats


@dataclass(frozen=True)
class SparsityProfile:
    """Per-tile zero-weight distribution for one model.

    Attributes:
        model: model name.
        silent_histogram: counts indexed by zeros-per-tile (length
            k*n + 1).
        word_sparsity: overall zero-code fraction (Table I).
        tile_k / tile_n: tile geometry.
    """

    model: str
    silent_histogram: np.ndarray
    word_sparsity: float
    tile_k: int
    tile_n: int

    @property
    def total_tiles(self) -> int:
        return int(self.silent_histogram.sum())

    def mean_silent_pes(self) -> float:
        """Average silent PEs per tile (Fig. 8's headline numbers)."""
        counts = np.arange(len(self.silent_histogram))
        total = self.silent_histogram.sum()
        return float(
            (counts * self.silent_histogram).sum() / max(total, 1)
        )

    def mean_active_pes(self) -> float:
        return self.tile_k * self.tile_n - self.mean_silent_pes()

    def to_rows(self) -> list[tuple[int, int]]:
        """(silent PEs, tile count) rows — the Fig. 8 series."""
        return [
            (count, int(freq))
            for count, freq in enumerate(self.silent_histogram)
        ]


def profile_model_sparsity(
    model: QuantizedModel, k: int = 16, n: int = 16
) -> SparsityProfile:
    """Build the Fig. 8 profile for a quantized model.

    Like Fig. 7's pooling, tiles run over each layer's stored weight
    tensor; only real weights count as (potentially) silent lanes.
    """
    histogram = np.zeros(k * n + 1, dtype=np.int64)
    for _layer, codes in model.iter_weight_tensors():
        zeros, _lanes = tile_zero_stats(codes, k, n)
        histogram += np.bincount(
            zeros.reshape(-1), minlength=k * n + 1
        )[: k * n + 1]
    return SparsityProfile(
        model=model.name,
        silent_histogram=histogram,
        word_sparsity=model.word_sparsity(),
        tile_k=k,
        tile_n=n,
    )
