"""Deterministic unary codes: pure unary and 2s-unary.

Terminology follows the tubGEMM papers: a *code* maps a signed integer to a
:class:`~repro.unary.bitstream.TemporalBitstream` and back.  Codes are
deterministic (unlike stochastic-computing bitstreams), so decoding is exact
and accuracy is identical to binary arithmetic — a central claim of the
paper.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import EncodingError
from repro.unary.bitstream import TemporalBitstream


class UnaryCode(ABC):
    """Interface for deterministic temporal-unary codes."""

    #: Human-readable scheme name.
    name: str = "abstract"

    @abstractmethod
    def encode_magnitude(self, magnitude: int) -> tuple[int, ...]:
        """Pulse train for a non-negative magnitude."""

    def encode(self, value: int) -> TemporalBitstream:
        """Encode a signed integer."""
        value = int(value)
        return TemporalBitstream(
            self.encode_magnitude(abs(value)), negative=value < 0
        )

    def decode(self, stream: TemporalBitstream) -> int:
        """Recover the signed integer from a stream (code-independent since
        pulses carry their values)."""
        return stream.value

    @abstractmethod
    def cycles_for_magnitude(self, magnitude: int) -> int:
        """Stream length for a given magnitude, without materialising it."""

    def cycles_for(self, value: int) -> int:
        return self.cycles_for_magnitude(abs(int(value)))

    def cycles_array(self, values: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`cycles_for` over an integer array."""
        mags = np.abs(np.asarray(values, dtype=np.int64))
        return self._cycles_array_from_magnitude(mags)

    def step_cycles(self, magnitude: int) -> int:
        """Cycles one lockstep array step holds for a streamed operand
        of this magnitude: the stream length, floored at 1 (an all-zero
        operand still occupies one issue slot).

        This is *the* magnitude->cycles helper shared by the GEMM
        engines (:mod:`repro.gemm`), the CSC burst scheduler and the
        runtime's burst-map accounting, so the gemm-level and
        runtime-level cycle models cannot drift apart — including at
        the signed edge values (e.g. -2 at INT2, whose magnitude 2 is
        *outside* the positive code range but costs exactly one
        2s-unary step).
        """
        return max(1, self.cycles_for_magnitude(abs(int(magnitude))))

    def step_cycles_array(self, values: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`step_cycles` over an integer array."""
        return np.maximum(self.cycles_array(values), 1)

    @abstractmethod
    def _cycles_array_from_magnitude(self, mags: np.ndarray) -> np.ndarray:
        ...

    def magnitude_after(
        self, mags: np.ndarray, cycles: "int | np.ndarray"
    ) -> np.ndarray:
        """Residual magnitude left in each encoder after ``cycles`` clock
        edges — the closed form behind burst-sized simulation jumps: the
        pulses a lane emits in ``cycles`` edges sum to
        ``mags - magnitude_after(mags, cycles)`` exactly.
        """
        mags = np.asarray(mags, dtype=np.int64)
        if np.any(mags < 0):
            raise EncodingError("magnitude must be non-negative")
        cycles = np.asarray(cycles, dtype=np.int64)
        if np.any(cycles < 0):
            raise EncodingError("cycle count must be non-negative")
        return self._magnitude_after(mags, cycles)

    @abstractmethod
    def _magnitude_after(
        self, mags: np.ndarray, cycles: np.ndarray
    ) -> np.ndarray:
        ...


class PureUnaryCode(UnaryCode):
    """tuGEMM-style code: magnitude ``m`` -> ``m`` pulses of value 1."""

    name = "unary"

    def encode_magnitude(self, magnitude: int) -> tuple[int, ...]:
        magnitude = int(magnitude)
        if magnitude < 0:
            raise EncodingError("magnitude must be non-negative")
        return (1,) * magnitude

    def cycles_for_magnitude(self, magnitude: int) -> int:
        if magnitude < 0:
            raise EncodingError("magnitude must be non-negative")
        return int(magnitude)

    def _cycles_array_from_magnitude(self, mags: np.ndarray) -> np.ndarray:
        return mags

    def _magnitude_after(
        self, mags: np.ndarray, cycles: np.ndarray
    ) -> np.ndarray:
        return np.maximum(mags - cycles, 0)


class TwosUnaryCode(UnaryCode):
    """2s-unary code (tubGEMM / Tempus Core).

    A magnitude ``m`` becomes ``floor(m/2)`` pulses of value 2 followed by a
    single value-1 pulse when ``m`` is odd, so the stream length is
    ``ceil(m/2)`` — half the pure-unary latency.
    """

    name = "2s-unary"

    def encode_magnitude(self, magnitude: int) -> tuple[int, ...]:
        magnitude = int(magnitude)
        if magnitude < 0:
            raise EncodingError("magnitude must be non-negative")
        return (2,) * (magnitude // 2) + ((1,) if magnitude % 2 else ())

    def cycles_for_magnitude(self, magnitude: int) -> int:
        if magnitude < 0:
            raise EncodingError("magnitude must be non-negative")
        return (int(magnitude) + 1) // 2

    def _cycles_array_from_magnitude(self, mags: np.ndarray) -> np.ndarray:
        return (mags + 1) // 2

    def _magnitude_after(
        self, mags: np.ndarray, cycles: np.ndarray
    ) -> np.ndarray:
        # Value-2 pulses while >= 2 remains, one value-1 pulse for an odd
        # tail: m cycles always drain min(2 * m, mag).
        return np.maximum(mags - 2 * cycles, 0)
