"""Tub PE cell: n tub lanes + shared adder tree + cell accumulator.

Each cycle the cell sums its n lane contributions through the adder tree
and accumulates the result; after ``ceil(max_i |w_i| / 2)`` cycles the
accumulator holds the exact n-lane dot product.  Lanes with zero weights
are *silent* for the whole burst (the sparsity lever of Sec. V-C).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.core.tub_multiplier import TubLaneBlock, TubMultiplier
from repro.unary.encoding import TwosUnaryCode, UnaryCode


class TubPeCell:
    """Cycle-accurate tub PE cell (one of the k cells in a PCU)."""

    def __init__(self, n: int, code: UnaryCode | None = None) -> None:
        if n < 1:
            raise SimulationError(f"PE cell needs n >= 1 lanes, got {n}")
        self.n = n
        self.code = code if code is not None else TwosUnaryCode()
        self.lanes = [TubMultiplier(self.code) for _ in range(n)]
        self._accumulator = 0
        self._burst_cycles = 0
        self._loaded = False

    def load_atom(self, feature: np.ndarray, weights: np.ndarray) -> int:
        """Latch one feature atom against this cell's weight atom.

        Returns:
            the burst length this cell needs (max over lanes).
        """
        feature = np.asarray(feature, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.int64)
        if feature.shape != (self.n,) or weights.shape != (self.n,):
            raise SimulationError(
                f"atom shapes {feature.shape}/{weights.shape} != ({self.n},)"
            )
        self._accumulator = 0
        self._loaded = True
        self._burst_cycles = 0
        for lane, act, weight in zip(self.lanes, feature, weights):
            self._burst_cycles = max(
                self._burst_cycles, lane.load(int(act), int(weight))
            )
        return self._burst_cycles

    @property
    def busy(self) -> bool:
        return any(lane.busy for lane in self.lanes)

    @property
    def partial_sum(self) -> int:
        """The accumulated dot product (valid once the burst completes)."""
        return self._accumulator

    @property
    def silent_lanes(self) -> int:
        """Lanes holding a zero weight in the current atom."""
        if not self._loaded:
            return 0
        return sum(1 for lane in self.lanes if lane.is_silent)

    def tick(self) -> int:
        """One burst cycle: adder tree over lane contributions, then
        accumulate.  Returns this cycle's tree output."""
        if not self._loaded:
            raise SimulationError("PE cell ticked before load_atom()")
        tree_sum = 0
        for lane in self.lanes:
            if lane.busy:
                tree_sum += lane.tick()
        self._accumulator += tree_sum
        return tree_sum


class TubCellBlock:
    """All k PE cells of a PCU as one vectorized (k, n) lane-state array.

    The batch companion to :class:`TubPeCell`: one :meth:`load_block` /
    :meth:`run_burst_vec` pair executes a whole k x n atom — every cell's
    adder tree and accumulator — as a handful of NumPy reductions instead
    of ``burst x k x n`` interpreter ticks.  State and results are
    bit-identical to k lockstepped :class:`TubPeCell` instances.
    """

    def __init__(self, k: int, n: int, code: UnaryCode | None = None) -> None:
        if k < 1 or n < 1:
            raise SimulationError(f"cell block needs k, n >= 1, got {k}x{n}")
        self.k = k
        self.n = n
        self.code = code if code is not None else TwosUnaryCode()
        self.lanes = TubLaneBlock((k, n), self.code)
        self._burst_cycles = 0
        self._loaded = False

    def load_block(
        self, feature: np.ndarray, weight_block: np.ndarray
    ) -> int:
        """Latch one feature atom against all k weight atoms.

        The feature row is broadcast across the k cells (the PCU holds the
        transposed feature column stable for the whole burst).

        Returns:
            the burst length of the whole tile (max over all k x n lanes).
        """
        feature = np.asarray(feature, dtype=np.int64)
        weight_block = np.asarray(weight_block, dtype=np.int64)
        if feature.shape != (self.n,) or weight_block.shape != (
            self.k,
            self.n,
        ):
            raise SimulationError(
                f"atom shapes {feature.shape}/{weight_block.shape} != "
                f"({self.n},)/({self.k}, {self.n})"
            )
        lane_cycles = self.lanes.load_block(
            np.broadcast_to(feature, (self.k, self.n)), weight_block
        )
        self._burst_cycles = int(lane_cycles.max(initial=0))
        self._loaded = True
        return self._burst_cycles

    @property
    def busy(self) -> bool:
        return self.lanes.busy

    @property
    def silent_lanes(self) -> int:
        """Zero-weight lanes across the whole tile (the gating statistic)."""
        if not self._loaded:
            return 0
        return int(self.lanes.silent_mask.sum())

    def step_vec(self, cycles: int = 1) -> np.ndarray:
        """Advance every cell ``cycles`` edges; returns the (k,) adder-tree
        outputs summed over the jump."""
        if not self._loaded:
            raise SimulationError("cell block stepped before load_block()")
        return self.lanes.step_vec(cycles).sum(axis=1)

    def run_burst_vec(self) -> tuple[np.ndarray, int]:
        """Run the whole burst; returns ((k,) partial sums, cycles)."""
        if not self._loaded:
            raise SimulationError("cell block run before load_block()")
        products, burst = self.lanes.run_burst_vec()
        return products.sum(axis=1), burst
