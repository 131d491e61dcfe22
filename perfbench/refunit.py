"""The benchmark's reference unit: a fixed host workload timed beside
the program so host-speed drift cancels out of the gated host metric.

It is an int64 3x3 convolution written the way the executor's hot loop
is — one strided ``np.einsum("gkc,bgcyx->bgkyx")`` per kernel tap
accumulated into a reused buffer — over fixed inputs.  It imports
nothing from the program, so no change to the program can move it.
"""

from __future__ import annotations

import time

import numpy as np

#: (batch, channels, kernels, output height/width) of the fixed conv.
SHAPE = (8, 32, 32, 16)

#: Nominal wall time of one unit (median on a 2-vCPU x86-64 VM with
#: numpy 2.4): the scale that turns reference units back into seconds.
NOMINAL_SECONDS = 0.015


class ReferenceUnit:
    """Fixed inputs built once; :meth:`run` returns one unit's wall
    time in seconds."""

    def __init__(self) -> None:
        batch, channels, kernels, size = SHAPE
        rng = np.random.default_rng(20250331)
        self.size = size
        self.inputs = rng.integers(
            -128, 128, (batch, 1, channels, size + 2, size + 2)
        ).astype(np.int64)
        self.weights = rng.integers(
            -128, 128, (1, kernels, channels, 3, 3)
        ).astype(np.int64)
        self.out = np.zeros((batch, 1, kernels, size, size), np.int64)
        self.partial = np.zeros_like(self.out)
        self.checksum = None

    def _compute(self) -> int:
        size = self.size
        first = True
        for tap_y in range(3):
            for tap_x in range(3):
                np.einsum(
                    "gkc,bgcyx->bgkyx",
                    self.weights[:, :, :, tap_y, tap_x],
                    self.inputs[:, :, :, tap_y : tap_y + size,
                                tap_x : tap_x + size],
                    out=self.out if first else self.partial,
                )
                if not first:
                    self.out += self.partial
                first = False
        return int(self.out[0, 0, 0, 0, 0])

    def run(self) -> float:
        started = time.perf_counter()
        value = self._compute()
        elapsed = time.perf_counter() - started
        # The result is consumed (and must never change) so the work
        # cannot be skipped or drift between units.
        if self.checksum is None:
            self.checksum = value
        elif value != self.checksum:
            raise RuntimeError("reference unit result changed")
        return elapsed
