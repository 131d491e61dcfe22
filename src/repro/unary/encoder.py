"""Cycle-level temporal encoder block.

Hardware view: each PE cell holds one "2s-unary block" per multiplier lane.
The block latches the weight magnitude into a working register and, every
clock, emits a pulse while draining the register — value 2 while at least 2
remains, a final value-1 pulse for an odd leftover.  The weight register
doubles as the down-counter, which is why the tub datapath needs no separate
counter (reflected in the area model of :mod:`repro.core.hwmodel`).
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.unary.encoding import TwosUnaryCode, UnaryCode


class TemporalEncoder:
    """Behavioral model of one temporal-encoder lane.

    Example:
        >>> enc = TemporalEncoder()
        >>> enc.load(-5)
        >>> [enc.tick() for _ in range(4)]
        [-2, -2, -1, 0]
    """

    def __init__(self, code: UnaryCode | None = None) -> None:
        self.code = code if code is not None else TwosUnaryCode()
        self._remaining = 0
        self._negative = False
        self._loaded = False

    def load(self, value: int) -> None:
        """Latch a new signed weight; restarts the stream."""
        value = int(value)
        self._remaining = abs(value)
        self._negative = value < 0
        self._loaded = True

    @property
    def busy(self) -> bool:
        """True while pulses are still pending."""
        return self._remaining > 0

    @property
    def remaining_cycles(self) -> int:
        return self.code.cycles_for_magnitude(self._remaining)

    def tick(self) -> int:
        """Advance one clock; returns the signed pulse emitted this cycle
        (0, ±1 or ±2)."""
        if not self._loaded:
            raise SimulationError("temporal encoder ticked before load()")
        if self._remaining <= 0:
            return 0
        if isinstance(self.code, TwosUnaryCode):
            pulse = 2 if self._remaining >= 2 else 1
        else:
            pulse = 1
        self._remaining -= pulse
        return -pulse if self._negative else pulse

    def drain(self) -> list[int]:
        """Run to completion, returning all remaining signed pulses."""
        pulses = []
        while self.busy:
            pulses.append(self.tick())
        return pulses
