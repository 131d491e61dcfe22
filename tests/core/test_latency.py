"""Tests for the analytic latency model."""

import numpy as np
import pytest

from repro.core.latency import (
    burst_cycle_map,
    burst_map_cache_stats,
    cached_burst_cycle_map,
    clear_burst_map_cache,
    configure_burst_map_disk_cache,
    layer_burst_cycles,
    tile_max_magnitudes,
    worst_case_cycles,
)
from repro.errors import DataflowError
from repro.nvdla.config import CoreConfig
from repro.nvdla.dataflow import ConvShape
from repro.unary.encoding import PureUnaryCode
from repro.utils.intrange import INT2, INT4, INT8
from tests.oracles import tile_idle_cell_counts, tile_zero_lane_counts


class TestWorstCase:
    def test_paper_worst_cases(self):
        assert worst_case_cycles(INT8) == 64
        assert worst_case_cycles(INT4) == 4
        assert worst_case_cycles(INT2) == 1

    def test_pure_unary_doubles(self):
        assert worst_case_cycles(INT8, PureUnaryCode()) == 128


class TestTileMax:
    def test_shape(self, rng):
        weights = rng.integers(-128, 128, (20, 35, 3, 3))
        maxima = tile_max_magnitudes(weights, 16, 16)
        assert maxima.shape == (2, 3, 3, 3)

    def test_padding_does_not_affect_max(self):
        weights = np.full((3, 3, 1, 1), 5, dtype=np.int64)
        maxima = tile_max_magnitudes(weights, 16, 16)
        assert maxima.max() == 5

    def test_known_values(self):
        weights = np.zeros((4, 4, 1, 1), dtype=np.int64)
        weights[0, 0] = -100
        weights[3, 3] = 50
        maxima = tile_max_magnitudes(weights, 2, 2)
        assert maxima[0, 0, 0, 0] == 100
        assert maxima[1, 1, 0, 0] == 50
        assert maxima[0, 1, 0, 0] == 0

    def test_bad_rank(self):
        with pytest.raises(DataflowError):
            tile_max_magnitudes(np.zeros((2, 2)), 2, 2)

    def test_unsigned_magnitudes_match_signed_weights(self, fuzz_rng):
        """uint8 magnitudes (what the schedule search hands in) give the
        signed weights' int64 maxima and burst maps, divisible and
        ragged tile edges alike, at the INT8 extremes too."""
        for shape in ((2, 16, 32, 3, 3), (3, 20, 35, 1, 1)):
            weights = fuzz_rng.integers(-128, 128, shape)
            weights.flat[0] = -128
            magnitudes = np.abs(weights).astype(np.uint8)
            maxima = tile_max_magnitudes(magnitudes, 16, 16)
            assert maxima.dtype == np.int64
            assert np.array_equal(
                maxima, tile_max_magnitudes(weights, 16, 16)
            )
            assert maxima.max() == 128
            config = CoreConfig(k=16, n=16, precision=INT8)
            assert np.array_equal(
                burst_cycle_map(magnitudes, config),
                burst_cycle_map(weights, config),
            )


class TestBurstMap:
    config = CoreConfig(k=2, n=2, precision=INT8)

    def test_min_one_cycle(self):
        weights = np.zeros((2, 2, 1, 1), dtype=np.int64)
        cycles = burst_cycle_map(weights, self.config)
        assert cycles.min() == 1

    def test_overhead_added(self):
        config = CoreConfig(k=2, n=2, burst_overhead=3)
        weights = np.full((2, 2, 1, 1), 8, dtype=np.int64)
        cycles = burst_cycle_map(weights, config)
        assert cycles[0, 0, 0, 0] == 4 + 3

    def test_halving(self):
        weights = np.full((2, 2, 1, 1), 7, dtype=np.int64)
        assert burst_cycle_map(weights, self.config)[0, 0, 0, 0] == 4


class TestLayerCycles:
    def test_scales_with_output_pixels(self, rng):
        weights = rng.integers(-128, 128, (2, 2, 3, 3))
        config = CoreConfig(k=2, n=2)
        small = ConvShape(2, 4, 4, 2, 3, 3, padding=1)
        large = ConvShape(2, 8, 8, 2, 3, 3, padding=1)
        cycles_small = layer_burst_cycles(small, weights, config)
        cycles_large = layer_burst_cycles(large, weights, config)
        assert cycles_large == 4 * cycles_small

    def test_uniform_weights_bound(self, rng):
        """Uniform random INT8 weights in a 16x16 tile: the burst is close
        to the worst case (max of 256 uniform samples)."""
        weights = INT8.random_array(rng, (16, 16, 1, 1))
        mean = burst_cycle_map(weights, CoreConfig(k=16, n=16)).mean()
        assert mean >= 60


class TestBurstMapCache:
    """``cached_burst_cycle_map`` is a compatibility name: it computes
    the map every call, so it can never serve a stale one."""

    def test_matches_uncached(self, rng):
        clear_burst_map_cache()
        weights = rng.integers(-128, 128, (5, 3, 2, 2))
        config = CoreConfig(k=2, n=2, burst_overhead=1)
        assert np.array_equal(
            cached_burst_cycle_map(weights, config),
            burst_cycle_map(weights, config),
        )

    def test_map_after_inplace_edit_matches_edited_tensor(self):
        """A map recomputed after an in-place weight edit equals the map
        of the edited tensor, including edits that preserve the sums a
        content checksum would use."""
        config = CoreConfig(k=1, n=1)
        weights = np.array(
            [1, 2, 8, 8, 2, 3, 1, 1], dtype=np.int64
        ).reshape(8, 1, 1, 1)
        before = cached_burst_cycle_map(weights, config)
        flat = weights.reshape(-1)
        flat[1] += 1
        flat[5] -= 1
        flat[2] -= 4
        flat[3] += 4
        after = cached_burst_cycle_map(weights, config)
        assert np.array_equal(after, burst_cycle_map(weights.copy(), config))
        assert not np.array_equal(after, before)
        assert burst_map_cache_stats() == {"hits": 0, "misses": 0}


class TestRetiredDiskCacheAlias:
    def test_none_is_a_no_op_and_a_directory_is_refused(self, tmp_path):
        """The on-disk tier is gone: turning it off still works, while
        pointing it at a directory fails loudly and creates nothing."""
        before = burst_map_cache_stats()
        assert configure_burst_map_disk_cache(None) is None
        assert configure_burst_map_disk_cache() is None
        with pytest.raises(DataflowError, match="on-disk"):
            configure_burst_map_disk_cache(tmp_path / "burst")
        assert not (tmp_path / "burst").exists()
        assert burst_map_cache_stats() == before


class TestTileGatingCounts:
    """The gating-count oracles of ``tests/oracles.py``."""

    def test_zero_lane_counts_include_edge_padding(self):
        weights = np.ones((3, 3, 1, 1), dtype=np.int64)
        weights[0, 0] = 0
        counts = tile_zero_lane_counts(weights, 2, 2)
        # Tile (0, 0): one real zero; padded lanes elsewhere count too.
        assert counts[0, 0, 0, 0] == 1
        # Bottom-right tile covers kernel 2 / channel 2 only: 3 padded
        # lanes out of 4 are zero.
        assert counts[1, 1, 0, 0] == 3

    def test_idle_cell_counts(self):
        weights = np.zeros((4, 2, 1, 1), dtype=np.int64)
        weights[0, 0] = 5  # kernel 0 active; kernels 1-3 all zero
        counts = tile_idle_cell_counts(weights, 2, 2)
        assert counts[0, 0, 0, 0] == 1  # kernel 1 idle in group 0
        assert counts[1, 0, 0, 0] == 2  # kernels 2, 3 idle in group 1

    def test_bad_rank(self):
        with pytest.raises(DataflowError):
            tile_zero_lane_counts(np.zeros((2, 2)), 2, 2)
        with pytest.raises(DataflowError):
            tile_idle_cell_counts(np.zeros((2, 2)), 2, 2)
