"""Temporal bitstream container.

A temporal bitstream is the wire-level signal a temporal encoder drives: one
pulse per clock cycle, each pulse carrying a small value (0, 1 or 2 in the
2s-unary scheme).  The stream is sign-magnitude: the magnitude travels as
pulses, the sign as a separate level signal (the hardware applies it as
add/subtract control at the accumulator).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.errors import EncodingError

_VALID_PULSES = (0, 1, 2)


@dataclass(frozen=True)
class TemporalBitstream:
    """An immutable pulse train plus a sign bit.

    Attributes:
        pulses: per-cycle pulse values, each in {0, 1, 2}.
        negative: True if the encoded value is negative.
    """

    pulses: tuple[int, ...]
    negative: bool = False

    def __post_init__(self) -> None:
        for pulse in self.pulses:
            if pulse not in _VALID_PULSES:
                raise EncodingError(f"invalid pulse value: {pulse}")

    @staticmethod
    def from_iterable(
        pulses: Sequence[int], negative: bool = False
    ) -> "TemporalBitstream":
        return TemporalBitstream(tuple(int(p) for p in pulses), negative)

    @property
    def cycles(self) -> int:
        """Stream length in clock cycles."""
        return len(self.pulses)

    @property
    def active_cycles(self) -> int:
        """Cycles carrying a non-zero pulse."""
        return sum(1 for p in self.pulses if p)

    @property
    def magnitude(self) -> int:
        return sum(self.pulses)

    @property
    def value(self) -> int:
        """The signed integer the stream encodes."""
        return -self.magnitude if self.negative else self.magnitude

    @property
    def is_silent(self) -> bool:
        """True when the stream carries no pulses at all — a "silent PE"
        in the paper's sparsity analysis."""
        return self.magnitude == 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.pulses)

    def __len__(self) -> int:
        return len(self.pulses)

    def padded(self, cycles: int) -> "TemporalBitstream":
        """Extend with zero pulses to ``cycles`` total — lockstep operation
        of an array is modelled by padding every lane to the array maximum."""
        if cycles < self.cycles:
            raise EncodingError(
                f"cannot pad stream of {self.cycles} cycles down to {cycles}"
            )
        return TemporalBitstream(
            self.pulses + (0,) * (cycles - self.cycles), self.negative
        )

    def signed_pulses(self) -> tuple[int, ...]:
        """Pulses with the sign applied — the accumulator-side view."""
        if self.negative:
            return tuple(-p for p in self.pulses)
        return self.pulses

    def waveform(self) -> str:
        """Compact trace such as ``-|2 2 1|`` for -5 — used by the Fig. 2
        dataflow example."""
        sign = "-" if self.negative else "+"
        body = " ".join(str(p) for p in self.pulses) if self.pulses else "·"
        return f"{sign}|{body}|"
