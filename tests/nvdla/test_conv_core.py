"""Tests for the NVDLA convolution core (both execution modes)."""

import numpy as np
import pytest

from repro.errors import DataflowError
from repro.nvdla.config import CoreConfig
from repro.nvdla.conv_core import ConvolutionCore
from repro.nvdla.dataflow import golden_conv2d
from repro.utils.intrange import INT4, INT8


def random_layer(rng, channels=5, size=6, kernels=6, kernel=3, spec=INT8):
    activations = spec.random_array(rng, (channels, size, size))
    weights = spec.random_array(rng, (kernels, channels, kernel, kernel))
    return activations, weights


class TestFastMode:
    def test_matches_golden(self, rng, small_config):
        activations, weights = random_layer(rng)
        result = ConvolutionCore(small_config).run_layer(
            activations, weights, padding=1
        )
        assert np.array_equal(
            result.output, golden_conv2d(activations, weights, 1, 1)
        )

    def test_cycle_count_formula(self, rng, small_config):
        activations, weights = random_layer(rng, channels=5, kernels=6)
        result = ConvolutionCore(small_config).run_layer(
            activations, weights, padding=1
        )
        # ceil(6/2) groups x 36 pixels x ceil(5/4) blocks x 9 positions
        assert result.atoms == 3 * 36 * 2 * 9
        assert result.cycles == result.atoms + 1

    def test_stride_supported(self, rng, small_config):
        activations, weights = random_layer(rng, size=7)
        result = ConvolutionCore(small_config).run_layer(
            activations, weights, stride=2, padding=1
        )
        assert result.output.shape == (6, 4, 4)

    def test_int4_range_enforced(self, rng):
        config = CoreConfig(k=2, n=2, precision=INT4)
        activations = np.full((2, 3, 3), 100)
        weights = np.zeros((2, 2, 1, 1), dtype=np.int64)
        with pytest.raises(Exception):
            ConvolutionCore(config).run_layer(activations, weights)

    def test_bad_rank_raises(self, small_config):
        with pytest.raises(DataflowError):
            ConvolutionCore(small_config).run_layer(
                np.zeros((2, 2)), np.zeros((1, 1, 1, 1))
            )

    def test_unknown_mode_raises(self, small_config):
        with pytest.raises(DataflowError):
            ConvolutionCore(small_config, mode="rtl")


class TestCycleMode:
    def test_matches_fast_mode_exactly(self, rng, small_config):
        activations, weights = random_layer(rng, channels=3, size=4,
                                            kernels=3)
        fast = ConvolutionCore(small_config, mode="fast").run_layer(
            activations, weights, padding=1
        )
        cycle = ConvolutionCore(small_config, mode="cycle").run_layer(
            activations, weights, padding=1
        )
        assert np.array_equal(fast.output, cycle.output)
        assert fast.cycles == cycle.cycles

    def test_1x1_conv(self, rng, small_config):
        activations, weights = random_layer(rng, kernel=1, size=3)
        cycle = ConvolutionCore(small_config, mode="cycle").run_layer(
            activations, weights
        )
        assert np.array_equal(
            cycle.output, golden_conv2d(activations, weights)
        )

    def test_gated_cells_on_sparse_weights(self, rng, small_config):
        activations, _ = random_layer(rng, channels=4, size=3, kernels=2)
        weights = np.zeros((2, 4, 1, 1), dtype=np.int64)
        weights[0, 0, 0, 0] = 1  # second kernel entirely zero
        result = ConvolutionCore(small_config, mode="cycle").run_layer(
            activations, weights
        )
        assert result.gated_cell_cycles > 0

    def test_utilization_metric(self, rng, small_config):
        activations, weights = random_layer(rng, channels=4, size=4,
                                            kernels=2)
        result = ConvolutionCore(small_config, mode="fast").run_layer(
            activations, weights, padding=1
        )
        pe_count = small_config.k * small_config.n
        assert 0 < result.macs / result.cycles <= pe_count
