"""Low-precision integer quantization substrate.

Implements the symmetric quantizer, min-max and percentile (trained
threshold style) calibration, and the :class:`QuantizedTensor` container used
by the model zoo, the profiling package and the Fig. 1 accuracy experiment.
"""

from repro.quant.calibration import (
    CalibrationResult,
    calibrate_minmax,
    calibrate_percentile,
)
from repro.quant.profile import (
    MIXED_EDGE,
    MIXED_INT2,
    PROFILES,
    UNIFORM_INT2,
    UNIFORM_INT4,
    UNIFORM_INT8,
    PrecisionProfile,
    precision_profile,
    uniform_profile,
)
from repro.quant.qtensor import QuantizedTensor
from repro.quant.quantize import (
    SymmetricQuantizer,
    fake_quantize,
    quantize_per_tensor,
)

__all__ = [
    "CalibrationResult",
    "calibrate_minmax",
    "calibrate_percentile",
    "MIXED_EDGE",
    "MIXED_INT2",
    "PROFILES",
    "PrecisionProfile",
    "precision_profile",
    "uniform_profile",
    "UNIFORM_INT2",
    "UNIFORM_INT4",
    "UNIFORM_INT8",
    "QuantizedTensor",
    "SymmetricQuantizer",
    "fake_quantize",
    "quantize_per_tensor",
]
