"""Randomized three-way engine equivalence: fast vs cycle vs burst.

The burst-level vectorized engine must be *bit-identical* to the tick-level
simulation — output tensor, total cycles, atom count and gating statistics —
across precisions (INT2/INT4/INT8), array geometries with odd k/n
remainders, strides/padding, and zero-heavy (sparse) weight tensors.
"""

import numpy as np
import pytest

from repro.core.tempus_core import TempusCore
from repro.nvdla.config import CoreConfig
from repro.nvdla.conv_core import ConvolutionCore
from repro.nvdla.dataflow import golden_conv2d
from repro.utils.intrange import INT2, INT4, INT8
from repro.utils.rng import make_rng
from tests.oracles import tile_idle_cell_counts, tile_zero_lane_counts

# (k, n, channels, kernels, size, kernel, stride, padding, spec,
#  zero_fraction, burst_overhead) — geometries chosen so channel blocks and
# kernel groups leave odd remainders, and sparsity spans dense to
# zero-heavy.
CASES = [
    (2, 3, 5, 5, 4, 3, 1, 1, INT8, 0.0, 0),
    (2, 4, 5, 3, 3, 2, 1, 0, INT8, 0.5, 0),
    (3, 2, 4, 7, 4, 2, 2, 0, INT8, 0.2, 2),
    (1, 1, 2, 2, 3, 1, 1, 0, INT8, 0.0, 1),
    (2, 2, 3, 3, 4, 3, 1, 1, INT4, 0.3, 0),
    (3, 3, 7, 4, 3, 2, 1, 0, INT4, 0.8, 1),
    (2, 3, 5, 5, 4, 2, 2, 1, INT2, 0.4, 0),
    (4, 4, 6, 6, 3, 3, 1, 1, INT2, 0.0, 0),
]


def sample_layer(seed, spec, channels, kernels, size, kernel, zero_fraction):
    rng = make_rng(f"equivalence-{seed}")
    activations = spec.random_array(rng, (channels, size, size))
    weights = spec.random_array(rng, (kernels, channels, kernel, kernel))
    if zero_fraction > 0:
        mask = rng.random(weights.shape) < zero_fraction
        weights = np.where(mask, 0, weights)
    return activations, weights


@pytest.mark.parametrize(
    "k,n,channels,kernels,size,kernel,stride,padding,spec,zeros,overhead",
    CASES,
)
def test_tempus_three_modes_bit_identical(
    k, n, channels, kernels, size, kernel, stride, padding, spec, zeros,
    overhead,
):
    config = CoreConfig(k=k, n=n, precision=spec, burst_overhead=overhead)
    activations, weights = sample_layer(
        f"t-{k}-{n}-{spec.name}-{zeros}", spec, channels, kernels, size,
        kernel, zeros,
    )
    fast = TempusCore(config, mode="fast").run_layer(
        activations, weights, stride, padding
    )
    cycle = TempusCore(config, mode="cycle").run_layer(
        activations, weights, stride, padding
    )
    burst = TempusCore(config, mode="burst").run_layer(
        activations, weights, stride, padding
    )
    golden = golden_conv2d(activations, weights, stride, padding)

    assert np.array_equal(burst.output, cycle.output)
    assert np.array_equal(burst.output, golden)
    assert burst.cycles == cycle.cycles
    assert burst.atoms == cycle.atoms
    assert burst.gated_cell_cycles == cycle.gated_cell_cycles
    # The analytic model agrees wherever it reports (it leaves gating at 0).
    assert fast.cycles == burst.cycles
    assert fast.atoms == burst.atoms
    assert np.array_equal(fast.output, burst.output)


@pytest.mark.parametrize(
    "k,n,channels,kernels,size,kernel,stride,padding,spec,zeros,overhead",
    CASES[:5],
)
def test_binary_three_modes_bit_identical(
    k, n, channels, kernels, size, kernel, stride, padding, spec, zeros,
    overhead,
):
    config = CoreConfig(k=k, n=n, precision=spec)
    activations, weights = sample_layer(
        f"b-{k}-{n}-{spec.name}-{zeros}", spec, channels, kernels, size,
        kernel, zeros,
    )
    fast = ConvolutionCore(config, mode="fast").run_layer(
        activations, weights, stride, padding
    )
    cycle = ConvolutionCore(config, mode="cycle").run_layer(
        activations, weights, stride, padding
    )
    burst = ConvolutionCore(config, mode="burst").run_layer(
        activations, weights, stride, padding
    )
    assert np.array_equal(burst.output, cycle.output)
    assert burst.cycles == cycle.cycles
    assert burst.atoms == cycle.atoms
    assert burst.gated_cell_cycles == cycle.gated_cell_cycles
    assert fast.cycles == burst.cycles
    assert np.array_equal(fast.output, burst.output)


def test_gating_stats_match_closed_form():
    """The simulated gating statistics equal the tile-by-tile counts
    of the zero-padded weights."""
    spec = INT8
    config = CoreConfig(k=3, n=4, precision=spec)
    activations, weights = sample_layer(
        "gating", spec, channels=6, kernels=5, size=4, kernel=2,
        zero_fraction=0.6,
    )
    shape_pixels = 3 * 3  # 4x4 input, 2x2 kernel, stride 1, no padding

    binary = ConvolutionCore(config, mode="burst").run_layer(
        activations, weights
    )
    idle = int(tile_idle_cell_counts(weights, config.k, config.n).sum())
    assert binary.gated_cell_cycles == idle * shape_pixels

    tempus = TempusCore(config, mode="burst").run_layer(activations, weights)
    from repro.core.latency import burst_cycle_map

    bursts = burst_cycle_map(weights, config, None)  # includes min-1 floor
    zeros = tile_zero_lane_counts(weights, config.k, config.n)
    assert tempus.gated_cell_cycles == int((zeros * bursts).sum()) * \
        shape_pixels


def test_pure_unary_code_dense_weights():
    """Pure-unary bursts run twice as long as 2s-unary; the deadlock
    budget must scale with the configured code (regression: the budget
    used to assume 2s-unary and raised a spurious SimulationError)."""
    from repro.unary.encoding import PureUnaryCode

    config = CoreConfig(k=2, n=2, precision=INT8)
    activations = np.full((2, 3, 3), 3, dtype=np.int64)
    weights = np.full((2, 2, 2, 2), -128, dtype=np.int64)  # 128-cycle bursts
    cycle = TempusCore(config, mode="cycle", code=PureUnaryCode()).run_layer(
        activations, weights
    )
    burst = TempusCore(config, mode="burst", code=PureUnaryCode()).run_layer(
        activations, weights
    )
    assert np.array_equal(burst.output, cycle.output)
    assert burst.cycles == cycle.cycles
    assert burst.gated_cell_cycles == cycle.gated_cell_cycles


def test_zero_weight_tensor_all_modes():
    """Degenerate all-zero weights: every lane silent, minimum-length
    bursts, still bit-identical across engines."""
    config = CoreConfig(k=2, n=2, precision=INT8)
    activations = make_rng("zero-case").integers(-128, 128, (3, 3, 3))
    weights = np.zeros((3, 3, 2, 2), dtype=np.int64)
    cycle = TempusCore(config, mode="cycle").run_layer(activations, weights)
    burst = TempusCore(config, mode="burst").run_layer(activations, weights)
    assert not burst.output.any()
    assert burst.cycles == cycle.cycles
    assert burst.gated_cell_cycles == cycle.gated_cell_cycles > 0
