"""Tests for the convolution buffer."""

import numpy as np
import pytest

from repro.errors import DataflowError
from repro.nvdla.cbuf import ConvBuffer
from repro.nvdla.dataflow import ConvShape, iter_atoms
from repro.utils.intrange import INT8


def small_layer(rng):
    shape = ConvShape(4, 6, 6, 4, 3, 3, padding=1)
    activations = rng.integers(-128, 128, shape.activation_shape())
    weights = rng.integers(-128, 128, shape.weight_shape())
    return shape, activations, weights


class TestCapacity:
    def test_fits_small_layer(self, rng):
        shape, activations, weights = small_layer(rng)
        cbuf = ConvBuffer(capacity_kib=128, banks=16)
        cbuf.load_layer(shape, activations, weights, INT8)
        # INT8: one byte per value.
        banks = cbuf.banks_needed(activations.size) \
            + cbuf.banks_needed(weights.size)
        assert banks <= cbuf.banks

    def test_oversized_layer_rejected(self):
        shape = ConvShape(256, 64, 64, 128, 3, 3, padding=1)
        activations = np.zeros(shape.activation_shape(), dtype=np.int64)
        weights = np.zeros(shape.weight_shape(), dtype=np.int64)
        cbuf = ConvBuffer(capacity_kib=16, banks=4)
        with pytest.raises(DataflowError):
            cbuf.load_layer(shape, activations, weights, INT8)

    def test_banks_needed_rounds_up(self):
        cbuf = ConvBuffer(capacity_kib=16, banks=16)  # 1 KiB banks
        assert cbuf.banks_needed(1) == 1
        assert cbuf.banks_needed(1025) == 2

    def test_invalid_config_raises(self):
        with pytest.raises(DataflowError):
            ConvBuffer(capacity_kib=0)
        with pytest.raises(DataflowError):
            ConvBuffer(banks=1)


class TestFetch:
    def test_read_before_load_raises(self, rng):
        shape, _, _ = small_layer(rng)
        atom = next(iter_atoms(shape, 4, 4))
        with pytest.raises(DataflowError):
            ConvBuffer().fetch_feature(atom, 4)

    def test_fetch_counts_accesses(self, rng):
        shape, activations, weights = small_layer(rng)
        cbuf = ConvBuffer()
        cbuf.load_layer(shape, activations, weights, INT8)
        atom = next(iter_atoms(shape, 4, 4))
        cbuf.fetch_feature(atom, 4)
        cbuf.fetch_weights(atom, 4, 4)
        assert cbuf.feature_reads == 1
        assert cbuf.weight_reads == 1

    def test_reload_resets_counters(self, rng):
        shape, activations, weights = small_layer(rng)
        cbuf = ConvBuffer()
        cbuf.load_layer(shape, activations, weights, INT8)
        atom = next(iter_atoms(shape, 4, 4))
        cbuf.fetch_feature(atom, 4)
        cbuf.load_layer(shape, activations, weights, INT8)
        assert cbuf.feature_reads == 0
