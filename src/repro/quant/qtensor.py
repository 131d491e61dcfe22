"""Quantized tensor container."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.intrange import IntSpec


@dataclass(frozen=True)
class QuantizedTensor:
    """Integer codes plus the dequantization metadata.

    Attributes:
        data: integer codes (int64).
        spec: the integer format the codes live in.
        scale: the per-tensor scale.
    """

    data: np.ndarray
    spec: IntSpec
    scale: np.float64

    def __post_init__(self) -> None:
        self.spec.check_array(self.data)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.data.shape)

    @property
    def size(self) -> int:
        return int(self.data.size)

    def dequantize(self) -> np.ndarray:
        """Real-valued view of the tensor."""
        return self.data.astype(np.float64) * float(self.scale)

    def zero_fraction(self) -> float:
        """Fraction of zero codes — the paper's Table I "word sparsity"."""
        if self.size == 0:
            return 0.0
        return float(np.mean(self.data == 0))

    def magnitudes(self) -> np.ndarray:
        return np.abs(self.data)
