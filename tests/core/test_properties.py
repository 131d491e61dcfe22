"""Property-based tests for the Tempus Core datapath."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.pe_cell import TubPeCell
from repro.core.tempus_core import TempusCore
from repro.core.tub_multiplier import TubMultiplier
from repro.nvdla.config import CoreConfig
from repro.nvdla.conv_core import ConvolutionCore
from repro.nvdla.dataflow import golden_conv2d
from tests.oracles import run_burst, run_to_completion

int8 = st.integers(min_value=-128, max_value=127)


@given(activation=int8, weight=int8)
def test_tub_multiplier_exact(activation, weight):
    lane = TubMultiplier()
    cycles = lane.load(activation, weight)
    assert run_to_completion(lane) == activation * weight
    assert cycles == (abs(weight) + 1) // 2


@given(
    feature=arrays(np.int64, 6, elements=int8),
    weights=arrays(np.int64, 6, elements=int8),
)
def test_pe_cell_dot_product(feature, weights):
    cell = TubPeCell(6)
    cell.load_atom(feature, weights)
    result, cycles = run_burst(cell)
    assert result == int(np.dot(feature, weights))
    assert cycles == int((np.abs(weights).max() + 1) // 2)


@settings(max_examples=25, deadline=None)
@given(
    data=st.data(),
    channels=st.integers(min_value=1, max_value=5),
    kernels=st.integers(min_value=1, max_value=5),
    size=st.integers(min_value=3, max_value=5),
    kernel=st.sampled_from([1, 3]),
    padding=st.integers(min_value=0, max_value=1),
)
def test_tempus_equals_binary_equals_golden(
    data, channels, kernels, size, kernel, padding
):
    """The central invariant: for arbitrary layer geometry and operands,
    TempusCore == NVDLA CC == golden convolution, bit-exact."""
    activations = data.draw(
        arrays(np.int64, (channels, size, size), elements=int8)
    )
    weights = data.draw(
        arrays(np.int64, (kernels, channels, kernel, kernel), elements=int8)
    )
    config = CoreConfig(k=2, n=4)
    golden = golden_conv2d(activations, weights, 1, padding)
    tempus = TempusCore(config).run_layer(
        activations, weights, padding=padding
    )
    binary = ConvolutionCore(config).run_layer(
        activations, weights, padding=padding
    )
    assert np.array_equal(tempus.output, golden)
    assert np.array_equal(binary.output, golden)


@settings(max_examples=15, deadline=None)
@given(
    data=st.data(),
    k=st.integers(min_value=1, max_value=3),
    n=st.integers(min_value=1, max_value=4),
)
def test_cycle_accurate_matches_fast_model(data, k, n):
    """The handshaked simulation and the analytic model agree on both
    output and total cycles for arbitrary small arrays."""
    activations = data.draw(arrays(np.int64, (3, 3, 3), elements=int8))
    weights = data.draw(arrays(np.int64, (3, 3, 2, 2), elements=int8))
    config = CoreConfig(k=k, n=n)
    fast = TempusCore(config, mode="fast").run_layer(activations, weights)
    cycle = TempusCore(config, mode="cycle").run_layer(activations, weights)
    assert np.array_equal(fast.output, cycle.output)
    assert fast.cycles == cycle.cycles


@given(weights=arrays(np.int64, (2, 4), elements=int8))
def test_burst_length_invariant(weights):
    """A k x n tile's burst equals ceil(max|w| / 2), floored at 1."""
    from repro.core.latency import burst_cycle_map

    config = CoreConfig(k=2, n=4)
    cycles = burst_cycle_map(weights.reshape(2, 4, 1, 1), config)
    expected = max(1, (int(np.abs(weights).max()) + 1) // 2)
    assert cycles[0, 0, 0, 0] == expected
