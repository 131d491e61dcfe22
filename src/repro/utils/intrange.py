"""Signed integer precision specifications (INT2 / INT4 / INT8).

The paper evaluates three low precisions: INT8, INT4 and INT2, all signed
two's complement.  A weight of the most negative value (-2^(w-1)) has the
largest magnitude (2^(w-1)); with 2s-unary coding its multiplication takes
2^(w-2) cycles, which matches the paper's quoted worst cases (64 cycles for
INT8, 4 for INT4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PrecisionError

SUPPORTED_WIDTHS = (2, 4, 8)


@dataclass(frozen=True)
class IntSpec:
    """A signed two's-complement integer format.

    Attributes:
        width: bit width (2, 4 or 8 in this study).
    """

    width: int

    def __post_init__(self) -> None:
        if self.width < 2 or self.width > 64:
            raise PrecisionError(f"unsupported bit width: {self.width}")

    @property
    def name(self) -> str:
        return f"INT{self.width}"

    @property
    def min_value(self) -> int:
        return -(1 << (self.width - 1))

    @property
    def max_value(self) -> int:
        return (1 << (self.width - 1)) - 1

    @property
    def max_magnitude(self) -> int:
        """Largest representable absolute value (reached by the most
        negative code)."""
        return 1 << (self.width - 1)

    @property
    def worst_case_tub_cycles(self) -> int:
        """Worst-case cycles for one tub multiplication with 2s-unary coding:
        ceil(max_magnitude / 2).  INT8 -> 64, INT4 -> 4, INT2 -> 1."""
        return (self.max_magnitude + 1) // 2

    def contains(self, value: int) -> bool:
        return self.min_value <= int(value) <= self.max_value

    def check(self, value: int) -> int:
        """Validate and return ``value`` as a Python int.

        Raises:
            PrecisionError: if the value is out of range.
        """
        value = int(value)
        if not self.contains(value):
            raise PrecisionError(
                f"{value} out of range for {self.name} "
                f"[{self.min_value}, {self.max_value}]"
            )
        return value

    def clip(self, values: np.ndarray) -> np.ndarray:
        """Saturate an array to the representable range."""
        return np.clip(values, self.min_value, self.max_value)

    def check_array(self, values: np.ndarray) -> np.ndarray:
        """Validate an integer array is within range; returns it as int64.

        Already-int64 inputs pass through unchanged (``copy=False``):
        validation runs on every ``run_layer`` call and must not copy
        the tensor.

        Only integer dtypes and *exact-integer* floats validate; a
        float carrying a fractional value (e.g. an accidentally
        dequantized ``2.7``) raises instead of silently truncating,
        and every other dtype (bool, complex, timedelta64 —
        which NumPy files under ``np.integer`` — datetime64, ...) is
        rejected.
        """
        arr = np.asarray(values)
        if arr.dtype.kind not in "iu":
            if arr.dtype.kind != "f":
                raise PrecisionError(
                    f"{self.name} expects an integer array, got dtype "
                    f"{arr.dtype}"
                )
            # NaN fails the exactness comparison; +-inf passes it and
            # is caught by the range check below.
            if arr.size and not bool(np.all(arr == np.trunc(arr))):
                raise PrecisionError(
                    f"array contains non-integer values; refusing to "
                    f"truncate to {self.name}"
                )
        if arr.size and (
            arr.min() < self.min_value or arr.max() > self.max_value
        ):
            raise PrecisionError(
                f"array values outside {self.name} range "
                f"[{self.min_value}, {self.max_value}]"
            )
        return arr.astype(np.int64, copy=False)

    def random_array(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Uniform random values over the full representable range."""
        return rng.integers(
            self.min_value, self.max_value + 1, size=shape, dtype=np.int64
        )


INT2 = IntSpec(2)
INT4 = IntSpec(4)
INT8 = IntSpec(8)

_BY_WIDTH = {2: INT2, 4: INT4, 8: INT8}


def int_spec(precision: "int | str | IntSpec") -> IntSpec:
    """Resolve a precision given as a width (8), a name ("INT8" / "int8"),
    or an existing :class:`IntSpec`."""
    if isinstance(precision, IntSpec):
        return precision
    if isinstance(precision, str):
        text = precision.strip().upper()
        if not text.startswith("INT"):
            raise PrecisionError(f"unrecognised precision name: {precision!r}")
        try:
            width = int(text[3:])
        except ValueError as exc:
            raise PrecisionError(
                f"unrecognised precision name: {precision!r}"
            ) from exc
    else:
        width = int(precision)
    if width in _BY_WIDTH:
        return _BY_WIDTH[width]
    return IntSpec(width)
