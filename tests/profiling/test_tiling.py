"""Tests for tile extraction."""

import numpy as np
import pytest

from repro.errors import DataflowError
from repro.profiling.tiling import (
    group_stack,
    tile_max_magnitudes,
    tile_zero_stats,
)


class TestGroupSplit:
    def test_split_count(self, rng):
        weights = rng.integers(-5, 5, (8, 2, 3, 3))
        groups = group_stack(weights, 4)
        assert groups.shape == (4, 2, 2, 3, 3)
        assert np.array_equal(groups[1], weights[2:4])

    def test_dense_single_group(self, rng):
        weights = rng.integers(-5, 5, (8, 2, 3, 3))
        (only,) = group_stack(weights, 1)
        assert np.array_equal(only, weights)

    def test_indivisible_raises(self, rng):
        weights = rng.integers(-5, 5, (9, 2, 3, 3))
        with pytest.raises(DataflowError):
            group_stack(weights, 4)

    def test_bad_rank_raises(self):
        with pytest.raises(DataflowError):
            group_stack(np.zeros((4, 4)), 2)


class TestZeroStats:
    def test_counts_only_real_lanes(self):
        """Edge tiles cover fewer lanes; padding never counts as silent."""
        weights = np.ones((3, 3, 1, 1), dtype=np.int64)
        zeros, lanes = tile_zero_stats(weights, 16, 16)
        assert zeros[0, 0, 0, 0] == 0
        assert lanes[0, 0, 0, 0] == 9

    def test_zero_counting(self):
        weights = np.zeros((4, 4, 1, 1), dtype=np.int64)
        weights[0, 0] = 3
        zeros, lanes = tile_zero_stats(weights, 4, 4)
        assert zeros[0, 0, 0, 0] == 15
        assert lanes[0, 0, 0, 0] == 16

    def test_per_position_tiles(self, rng):
        weights = rng.integers(-5, 5, (4, 4, 3, 3))
        zeros, lanes = tile_zero_stats(weights, 4, 4)
        assert zeros.shape == (1, 1, 3, 3)
        total_zeros = int((weights == 0).sum())
        assert int(zeros.sum()) == total_zeros

    def test_bad_rank(self):
        with pytest.raises(DataflowError):
            tile_zero_stats(np.zeros(4), 2, 2)


class TestMaxMagnitudes:
    def test_reexported_from_core(self, rng):
        weights = rng.integers(-128, 128, (16, 16, 1, 1))
        maxima = tile_max_magnitudes(weights, 16, 16)
        assert maxima[0, 0, 0, 0] == np.abs(weights).max()
