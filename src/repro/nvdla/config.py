"""Convolution-core configuration.

The paper's hierarchy: a convolution core contains a ``k x n`` PE array —
``k`` PE cells ("MAC cells" in NVDLA terms), each with ``n`` multipliers.
``nv_small`` ships an 8x8 array at INT8; the paper evaluates 16x16, 16x4 and
single-cell (k=1) slices across INT2/INT4/INT8.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

from repro.errors import DataflowError
from repro.utils.intrange import INT8, IntSpec, int_spec


@dataclass(frozen=True)
class CoreConfig:
    """Geometry + precision of a convolution MAC array.

    Attributes:
        k: number of PE cells (kernels processed in parallel).
        n: multipliers per PE cell (channels consumed per atom).
        precision: operand integer format.
        pipeline_latency: output-register stages between the array and the
            accumulator (NVDLA retimes CMAC outputs through one register).
        burst_overhead: extra cycles a Tempus PCU spends caching operands in
            and results out per multi-cycle burst ("the PCU takes a few
            extra cycles for caching in and out the values" — Sec. IV); the
            paper's array-level analysis uses 0.
    """

    k: int = 16
    n: int = 16
    precision: IntSpec = INT8
    pipeline_latency: int = 1
    burst_overhead: int = 0

    def __post_init__(self) -> None:
        for name in ("k", "n", "pipeline_latency", "burst_overhead"):
            value = getattr(self, name)
            # bool is an Integral subtype, but CoreConfig(k=True) is a
            # caller bug, not a 1x1 array.
            if isinstance(value, bool) or not isinstance(
                value, numbers.Integral
            ):
                raise DataflowError(
                    f"{name} must be an integer, got {value!r}"
                )
            object.__setattr__(self, name, int(value))
        if self.k < 1:
            raise DataflowError(f"k must be >= 1, got {self.k}")
        if self.n < 1:
            raise DataflowError(f"n must be >= 1, got {self.n}")
        if self.pipeline_latency < 0 or self.burst_overhead < 0:
            raise DataflowError("latency overheads must be non-negative")
        object.__setattr__(self, "precision", int_spec(self.precision))

    @property
    def pe_count(self) -> int:
        """Total multipliers in the array."""
        return self.k * self.n

    @property
    def accumulator_width(self) -> int:
        """Bits needed for one cell's dot product of n products."""
        import math

        product_bits = 2 * self.precision.width
        return product_bits + max(1, math.ceil(math.log2(self.n))) \
            if self.n > 1 else product_bits + 1

    def with_precision(self, precision: "int | str | IntSpec") -> "CoreConfig":
        return CoreConfig(
            k=self.k,
            n=self.n,
            precision=int_spec(precision),
            pipeline_latency=self.pipeline_latency,
            burst_overhead=self.burst_overhead,
        )

    def describe(self) -> str:
        return f"{self.k}x{self.n} {self.precision.name}"


#: The embedded NVDLA configuration the paper builds on (8 cells x 8 MACs).
NV_SMALL = CoreConfig(k=8, n=8, precision=INT8)

#: The array size most of the paper's evaluation uses.
ARRAY_16X16 = CoreConfig(k=16, n=16, precision=INT8)

#: The place-and-route case study (INT4, 16x4).
ARRAY_16X4_INT4 = CoreConfig(k=16, n=4, precision=int_spec(4))
