"""Tests for the Tempus Core engine."""

import numpy as np
import pytest

from repro.core.tempus_core import TempusCore
from repro.errors import DataflowError
from repro.nvdla.config import CoreConfig
from repro.nvdla.conv_core import ConvolutionCore
from repro.nvdla.dataflow import golden_conv2d
from repro.utils.intrange import INT4, INT8


def random_layer(rng, channels=5, size=5, kernels=5, kernel=3, spec=INT8):
    activations = spec.random_array(rng, (channels, size, size))
    weights = spec.random_array(rng, (kernels, channels, kernel, kernel))
    return activations, weights


class TestExactness:
    def test_fast_matches_golden(self, rng, small_config):
        activations, weights = random_layer(rng)
        result = TempusCore(small_config).run_layer(
            activations, weights, padding=1
        )
        assert np.array_equal(
            result.output, golden_conv2d(activations, weights, 1, 1)
        )

    def test_matches_binary_core_exactly(self, rng, small_config):
        """The drop-in claim: same inputs, bit-identical outputs."""
        activations, weights = random_layer(rng)
        tempus = TempusCore(small_config).run_layer(
            activations, weights, padding=1
        )
        binary = ConvolutionCore(small_config).run_layer(
            activations, weights, padding=1
        )
        assert np.array_equal(tempus.output, binary.output)

    def test_int4_exact(self, rng, int4_config):
        activations, weights = random_layer(
            rng, channels=2, size=4, kernels=2, spec=INT4
        )
        result = TempusCore(int4_config).run_layer(
            activations, weights, padding=1
        )
        assert np.array_equal(
            result.output, golden_conv2d(activations, weights, 1, 1)
        )


class TestCycleModel:
    def test_cycle_sim_matches_analytic(self, rng, small_config):
        activations, weights = random_layer(rng, channels=4, size=3,
                                            kernels=2)
        fast = TempusCore(small_config, mode="fast").run_layer(
            activations, weights, padding=1
        )
        cycle = TempusCore(small_config, mode="cycle").run_layer(
            activations, weights, padding=1
        )
        assert np.array_equal(fast.output, cycle.output)
        assert fast.cycles == cycle.cycles

    def test_cycle_sim_with_burst_overhead(self, rng):
        config = CoreConfig(k=2, n=2, burst_overhead=2)
        activations, weights = random_layer(rng, channels=2, size=3,
                                            kernels=2)
        fast = TempusCore(config, mode="fast").run_layer(
            activations, weights
        )
        cycle = TempusCore(config, mode="cycle").run_layer(
            activations, weights
        )
        assert fast.cycles == cycle.cycles

    def test_slower_than_binary_but_bounded(self, rng, small_config):
        """Latency ratio is bounded by the worst-case burst length."""
        activations, weights = random_layer(rng)
        tempus = TempusCore(small_config).run_layer(
            activations, weights, padding=1
        )
        binary = ConvolutionCore(small_config).run_layer(
            activations, weights, padding=1
        )
        ratio = tempus.cycles / binary.cycles
        assert 1.0 <= ratio <= 64 + 1

    def test_sparse_weights_faster(self, rng, small_config):
        """Smaller weight magnitudes -> shorter bursts (the sparsity
        story)."""
        activations, _ = random_layer(rng)
        dense = np.full((5, 5, 3, 3), -128, dtype=np.int64)
        sparse = np.ones((5, 5, 3, 3), dtype=np.int64)
        slow = TempusCore(small_config).run_layer(
            activations, dense, padding=1
        )
        fast = TempusCore(small_config).run_layer(
            activations, sparse, padding=1
        )
        assert fast.cycles < slow.cycles / 10


class TestValidation:
    def test_unknown_mode(self, small_config):
        with pytest.raises(DataflowError):
            TempusCore(small_config, mode="hdl")

    def test_bad_rank(self, small_config):
        with pytest.raises(DataflowError):
            TempusCore(small_config).run_layer(
                np.zeros(3), np.zeros((1, 1, 1, 1))
            )

    def test_default_config_is_16x16(self):
        config = TempusCore().config
        assert (config.k, config.n) == (16, 16)
