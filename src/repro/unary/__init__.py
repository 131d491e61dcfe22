"""Temporal-unary encoding substrate.

This package implements the two deterministic unary codes used by the tub
(temporal-unary-binary) multiplier family:

* **pure unary** (tuGEMM): a magnitude ``m`` becomes ``m`` pulses of value 1.
* **2s-unary** (tubGEMM / Tempus Core): ``floor(m/2)`` pulses of value 2 plus
  one pulse of value 1 when ``m`` is odd — halving the stream length, which
  is where Tempus Core's worst-case-latency halving comes from.

It also provides a cycle-level encoder mirroring the "2s-unary blocks in
the temporal encoder" the paper places inside each PE cell.
"""

from repro.unary.bitstream import TemporalBitstream
from repro.unary.encoding import (
    PureUnaryCode,
    TwosUnaryCode,
    UnaryCode,
)
from repro.unary.encoder import TemporalEncoder

__all__ = [
    "TemporalBitstream",
    "UnaryCode",
    "PureUnaryCode",
    "TwosUnaryCode",
    "TemporalEncoder",
]
