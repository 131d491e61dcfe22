"""Temporal bitstream container.

A temporal bitstream is the wire-level signal a temporal encoder drives: one
pulse per clock cycle, each pulse carrying a small value (0, 1 or 2 in the
2s-unary scheme).  The stream is sign-magnitude: the magnitude travels as
pulses, the sign as a separate level signal (the hardware applies it as
add/subtract control at the accumulator).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

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
