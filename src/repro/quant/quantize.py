"""Quantizer implementations.

Weights use symmetric quantization (zero maps to code 0 — essential for the
sparsity exploitation story: a zero weight becomes a *silent* tub lane).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CalibrationError
from repro.quant.calibration import calibrate_minmax, calibrate_percentile
from repro.quant.qtensor import QuantizedTensor
from repro.utils.intrange import IntSpec, int_spec


@dataclass(frozen=True)
class SymmetricQuantizer:
    """Symmetric linear quantizer: q = clip(round(x / scale)).

    The scale maps the calibration threshold onto the largest positive code
    (2^(w-1) - 1), so the most negative code is only produced by saturation —
    mirroring standard symmetric INT8 weight quantization.
    """

    spec: IntSpec
    scale: float

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise CalibrationError(f"scale must be positive, got {self.scale}")

    @classmethod
    def from_threshold(
        cls, precision: "int | str | IntSpec", threshold: float
    ) -> "SymmetricQuantizer":
        spec = int_spec(precision)
        if threshold <= 0:
            raise CalibrationError("threshold must be positive")
        # A subnormal threshold can underflow the division to 0.0;
        # floor at the smallest normal double (every finite input then
        # quantizes to 0, which is the right answer at that scale).
        scale = max(threshold / spec.max_value, np.finfo(np.float64).tiny)
        return cls(spec=spec, scale=scale)

    def quantize(self, values: np.ndarray) -> np.ndarray:
        arr = np.asarray(values, dtype=np.float64)
        codes = np.round(arr / self.scale)
        return self.spec.clip(codes).astype(np.int64)

    def dequantize(self, codes: np.ndarray) -> np.ndarray:
        return np.asarray(codes, dtype=np.float64) * self.scale


def quantize_per_tensor(
    values: np.ndarray,
    precision: "int | str | IntSpec",
    percentile: float | None = None,
) -> QuantizedTensor:
    """Symmetric per-tensor quantization with min-max or percentile
    calibration.  The values are converted to float64 once; the
    calibration and the quantizer share that array."""
    values = np.asarray(values, dtype=np.float64)
    if percentile is None:
        calib = calibrate_minmax(values)
    else:
        calib = calibrate_percentile(values, percentile)
    quantizer = SymmetricQuantizer.from_threshold(precision, calib.threshold)
    return QuantizedTensor(
        data=quantizer.quantize(values),
        spec=quantizer.spec,
        scale=np.float64(quantizer.scale),
    )


def fake_quantize(
    values: np.ndarray,
    precision: "int | str | IntSpec",
    percentile: float | None = None,
) -> np.ndarray:
    """Quantize-dequantize round trip (simulated quantization for the
    Fig. 1 accuracy study)."""
    qt = quantize_per_tensor(values, precision, percentile)
    return qt.dequantize()
