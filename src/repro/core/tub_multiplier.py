"""The tub (temporal-unary-binary) multiplier.

One lane multiplies a *binary* activation by a *temporally encoded* weight:
for every pulse of the weight stream the binary operand (shifted left for a
value-2 pulse) is added to the running sum — Fig. 2 of the paper.  The lane
is exact: after ``ceil(|w| / 2)`` cycles the accumulator holds ``a * w``.

Hardware content per lane (see :mod:`repro.core.hwmodel`): the weight
register doubling as a down-counter, pulse-select logic, an operand gate
(select 0 / a / a<<1) and sign conditioning — no array multiplier, which is
the area/power story of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.sim.trace import TraceRecorder
from repro.unary.encoder import TemporalEncoder
from repro.unary.encoding import TwosUnaryCode, UnaryCode
from repro.utils.intrange import IntSpec


class TubMultiplier:
    """Cycle-accurate single-lane tub multiplier."""

    def __init__(self, code: UnaryCode | None = None) -> None:
        self.code = code if code is not None else TwosUnaryCode()
        self._encoder = TemporalEncoder(self.code)
        self._activation = 0
        self._accumulator = 0
        self._loaded = False
        #: signed pulse emitted on the most recent tick (trace aid).
        self.last_pulse = 0

    def load(self, activation: int, weight: int) -> int:
        """Latch the operand pair; returns the burst length in cycles."""
        self._activation = int(activation)
        self._encoder.load(int(weight))
        self._accumulator = 0
        self._loaded = True
        return self.code.cycles_for(weight)

    @property
    def busy(self) -> bool:
        return self._encoder.busy

    @property
    def is_silent(self) -> bool:
        """A zero weight never pulses; the lane stays inactive for the whole
        burst (the paper's sparsity exploitation)."""
        return self._loaded and not self._encoder.busy

    @property
    def product(self) -> int:
        return self._accumulator

    def tick(self) -> int:
        """Advance one cycle; returns this cycle's contribution
        (pulse x activation)."""
        if not self._loaded:
            raise SimulationError("tub multiplier ticked before load()")
        pulse = self._encoder.tick()
        self.last_pulse = pulse
        contribution = pulse * self._activation
        self._accumulator += contribution
        return contribution


class TubLaneBlock:
    """Vectorized batch of tub lanes advancing in lockstep.

    The per-edge :class:`TubMultiplier` ticks one lane one cycle at a time;
    this block holds the *same* lane state (residual weight magnitude, sign,
    latched activation, accumulator) for an arbitrary array of lanes and
    advances all of them by whole multi-cycle jumps with closed-form NumPy
    ops.  A tub burst is exact — after ``m`` cycles a 2s-unary lane has
    drained ``min(2 * m, |w|)`` of its magnitude — so jumping by the burst
    length loses nothing against edge-by-edge ticking (the vectorized
    engine's correctness argument; the equivalence tests assert it).
    """

    def __init__(
        self, shape: "int | tuple[int, ...]", code: UnaryCode | None = None
    ) -> None:
        self.code = code if code is not None else TwosUnaryCode()
        self.shape = (shape,) if isinstance(shape, int) else tuple(shape)
        self._activations = np.zeros(self.shape, dtype=np.int64)
        self._signs = np.ones(self.shape, dtype=np.int64)
        self._remaining = np.zeros(self.shape, dtype=np.int64)
        self._accumulators = np.zeros(self.shape, dtype=np.int64)
        self._silent = np.zeros(self.shape, dtype=bool)
        self._loaded = False

    def load_block(
        self, activations: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        """Latch one operand pair per lane; returns per-lane burst lengths.

        The batch equivalent of :meth:`TubMultiplier.load` over every lane
        at once.
        """
        activations = np.asarray(activations, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.int64)
        if activations.shape != self.shape or weights.shape != self.shape:
            raise SimulationError(
                f"operand shapes {activations.shape}/{weights.shape} != "
                f"{self.shape}"
            )
        self._activations = activations
        self._signs = np.where(weights < 0, -1, 1).astype(np.int64)
        self._remaining = np.abs(weights)
        self._accumulators = np.zeros(self.shape, dtype=np.int64)
        self._silent = weights == 0
        self._loaded = True
        return self.code.cycles_array(weights)

    @property
    def silent_mask(self) -> np.ndarray:
        """Lanes latched with a zero weight (inactive the whole burst)."""
        if not self._loaded:
            return np.zeros(self.shape, dtype=bool)
        return self._silent

    @property
    def busy(self) -> bool:
        return bool(self._remaining.any())

    def step_vec(self, cycles: int = 1) -> np.ndarray:
        """Advance every lane ``cycles`` edges in one jump; returns the
        per-lane contribution emitted over the jump."""
        if not self._loaded:
            raise SimulationError("lane block stepped before load_block()")
        if cycles < 0:
            raise SimulationError(f"cannot step {cycles} cycles")
        after = self.code.magnitude_after(self._remaining, cycles)
        emitted = (self._remaining - after) * self._signs
        contribution = emitted * self._activations
        self._accumulators += contribution
        self._remaining = after
        return contribution

    def run_burst_vec(self) -> tuple[np.ndarray, int]:
        """Drain every lane; returns (products, burst cycles consumed)."""
        if not self._loaded:
            raise SimulationError("lane block run before load_block()")
        burst = int(self.code.cycles_array(self._remaining).max(initial=0))
        self.step_vec(burst)
        return self._accumulators, burst


@dataclass(frozen=True)
class TubTrace:
    """A full cycle-by-cycle record of one tub multiplication (Fig. 2)."""

    activation: int
    weight: int
    product: int
    cycles: int
    trace: TraceRecorder

    def render(self) -> str:
        return self.trace.render(
            title=(
                f"tub multiply: a={self.activation}, w={self.weight} -> "
                f"{self.product} in {self.cycles} cycle(s)"
            )
        )


def tub_multiply(
    activation: int,
    weight: int,
    code: UnaryCode | None = None,
    spec: IntSpec | None = None,
) -> TubTrace:
    """Run one tub multiplication and capture its dataflow trace.

    Args:
        activation: binary operand.
        weight: temporally encoded operand.
        code: unary code (defaults to 2s-unary).
        spec: optional precision to range-check the operands against.
    """
    if spec is not None:
        spec.check(activation)
        spec.check(weight)
    lane = TubMultiplier(code)
    cycles = lane.load(activation, weight)
    trace = TraceRecorder()
    cycle = 0
    while lane.busy:
        contribution = lane.tick()
        trace.sample_many(
            cycle,
            {
                "pulse": lane.last_pulse,
                "contribution": contribution,
                "accumulator": lane.product,
                "remaining": lane._encoder.remaining_cycles,  # noqa: SLF001
            },
        )
        cycle += 1
    if cycle == 0:
        trace.sample_many(
            0, {"pulse": 0, "contribution": 0, "accumulator": 0,
                "remaining": 0}
        )
    return TubTrace(
        activation=int(activation),
        weight=int(weight),
        product=lane.product,
        cycles=cycles,
        trace=trace,
    )
