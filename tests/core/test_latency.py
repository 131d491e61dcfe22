"""Tests for the analytic latency model."""

import multiprocessing

import numpy as np
import pytest

from repro.core.latency import (
    average_burst_cycles,
    burst_cycle_map,
    burst_map_cache_stats,
    cached_burst_cycle_map,
    clear_burst_map_cache,
    configure_burst_map_disk_cache,
    layer_burst_cycles,
    tile_idle_cell_counts,
    tile_max_magnitudes,
    tile_zero_lane_counts,
    worst_case_cycles,
)
from repro.errors import DataflowError
from repro.nvdla.config import CoreConfig
from repro.nvdla.dataflow import ConvShape
from repro.unary.encoding import PureUnaryCode
from repro.utils.intrange import INT2, INT4, INT8


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

    def test_average_matches_map(self, rng):
        weights = rng.integers(-128, 128, (4, 4, 3, 3))
        config = CoreConfig(k=2, n=2)
        mean = average_burst_cycles(weights, config)
        cycles = burst_cycle_map(weights, config)
        assert mean == pytest.approx(cycles.mean())

    def test_uniform_weights_bound(self, rng):
        """Uniform random INT8 weights in a 16x16 tile: the burst is close
        to the worst case (max of 256 uniform samples)."""
        weights = INT8.random_array(rng, (16, 16, 1, 1))
        mean = average_burst_cycles(weights, CoreConfig(k=16, n=16))
        assert mean >= 60


class TestBurstMapCache:
    def test_hit_on_same_tensor(self, rng):
        clear_burst_map_cache()
        weights = rng.integers(-128, 128, (4, 4, 3, 3))
        config = CoreConfig(k=2, n=2)
        first = cached_burst_cycle_map(weights, config)
        second = cached_burst_cycle_map(weights, config)
        assert second is first
        stats = burst_map_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_miss_on_different_geometry(self, rng):
        clear_burst_map_cache()
        weights = rng.integers(-128, 128, (4, 4, 3, 3))
        a = cached_burst_cycle_map(weights, CoreConfig(k=2, n=2))
        b = cached_burst_cycle_map(weights, CoreConfig(k=4, n=4))
        assert a.shape != b.shape
        assert burst_map_cache_stats()["misses"] == 2

    def test_matches_uncached(self, rng):
        clear_burst_map_cache()
        weights = rng.integers(-128, 128, (5, 3, 2, 2))
        config = CoreConfig(k=2, n=2, burst_overhead=1)
        assert np.array_equal(
            cached_burst_cycle_map(weights, config),
            burst_cycle_map(weights, config),
        )

    def test_cached_map_is_read_only(self, rng):
        clear_burst_map_cache()
        weights = rng.integers(-128, 128, (4, 4, 1, 1))
        cycles = cached_burst_cycle_map(weights, CoreConfig(k=2, n=2))
        with pytest.raises(ValueError):
            cycles[0, 0, 0, 0] = 99

    def test_inplace_mutation_invalidates_entry(self):
        """Mutating a cached tensor in place must not serve stale maps."""
        clear_burst_map_cache()
        config = CoreConfig(k=2, n=2)
        weights = np.full((2, 2, 1, 1), 8, dtype=np.int64)
        assert cached_burst_cycle_map(weights, config)[0, 0, 0, 0] == 4
        weights[0, 0, 0, 0] = 2  # same storage, smaller burst
        cycles = cached_burst_cycle_map(weights, config)
        assert cycles[0, 0, 0, 0] == 4  # tile max is still the 8s
        weights[:] = 2
        cycles = cached_burst_cycle_map(weights, config)
        assert cycles[0, 0, 0, 0] == 1
        stats = burst_map_cache_stats()
        assert stats["invalidations"] == 2
        assert stats["hits"] == 0

    def test_sum_preserving_swap_invalidates(self):
        """A permutation of cached weights preserves the plain sum but
        must still be detected (position-weighted checksum)."""
        clear_burst_map_cache()
        config = CoreConfig(k=1, n=1)
        weights = np.array([4, 2, 8, 4], dtype=np.int64).reshape(
            4, 1, 1, 1
        )
        before = cached_burst_cycle_map(weights, config).copy()
        weights[1, 0, 0, 0], weights[2, 0, 0, 0] = 8, 2  # swap interior
        after = cached_burst_cycle_map(weights, config)
        assert np.array_equal(
            after, burst_cycle_map(weights, config)
        )
        assert not np.array_equal(after, before)
        assert burst_map_cache_stats()["invalidations"] == 1

    def test_two_pair_compensating_edit_invalidates(self):
        """Regression: two compensating edit pairs engineered to cancel
        in the plain sum AND the position-weighted sum used to slip
        through the fingerprint and serve a stale burst map.  With
        1-indexed positions, +1/-1 at positions (2, 6) against -4/+4 at
        (3, 4) shifts the linear term by 1*2 - 1*6 - 4*3 + 4*4 = 0 while
        leaving the end elements and the plain sum untouched.  The
        squared-position sample term shifts by 1*4 - 1*36 - 4*9 + 4*16 =
        -4, so the mutation is now detected."""
        clear_burst_map_cache()
        config = CoreConfig(k=1, n=1)
        weights = np.array(
            [1, 2, 8, 8, 2, 3, 1, 1], dtype=np.int64
        ).reshape(8, 1, 1, 1)
        before = cached_burst_cycle_map(weights, config).copy()
        flat = weights.reshape(-1)
        old = flat.copy()
        flat[1] += 1
        flat[5] -= 1
        flat[2] -= 4
        flat[3] += 4
        # The edit preserves every pre-fix fingerprint component...
        positions = np.arange(1, flat.size + 1, dtype=np.int64)
        assert flat[0] == old[0] and flat[-1] == old[-1]
        assert int(flat.sum()) == int(old.sum())
        assert int(np.dot(flat, positions)) == int(
            np.dot(old, positions)
        )
        # ...but changes tile maxima, so serving the cached map would
        # be wrong.
        after = cached_burst_cycle_map(weights, config)
        assert np.array_equal(after, burst_cycle_map(weights, config))
        assert not np.array_equal(after, before)
        assert burst_map_cache_stats()["invalidations"] == 1
        assert burst_map_cache_stats()["hits"] == 0

    def test_mutation_invalidation_then_rehits(self):
        """After an invalidation the fresh map is cached again."""
        clear_burst_map_cache()
        config = CoreConfig(k=2, n=2)
        weights = np.full((2, 2, 1, 1), 6, dtype=np.int64)
        cached_burst_cycle_map(weights, config)
        weights[1, 1, 0, 0] = 1
        fresh = cached_burst_cycle_map(weights, config)
        again = cached_burst_cycle_map(weights, config)
        assert again is fresh
        assert burst_map_cache_stats()["hits"] == 1

    def test_recycled_id_does_not_false_hit(self):
        """A dead array whose id is reused must not serve stale cycles."""
        clear_burst_map_cache()
        config = CoreConfig(k=2, n=2)
        first = np.full((2, 2, 1, 1), 8, dtype=np.int64)
        assert cached_burst_cycle_map(first, config)[0, 0, 0, 0] == 4
        key_id = id(first)
        del first
        # Even if a new tensor lands on the same id, the weakref identity
        # check forces a recompute.
        second = np.full((2, 2, 1, 1), 2, dtype=np.int64)
        cycles = cached_burst_cycle_map(second, config)
        assert cycles[0, 0, 0, 0] == 1
        del key_id


def _fork_child_probe(weights, conn):
    """Runs in a forked worker: report the inherited cache state, that
    warm entries still hit, and that mutation-under-cache still
    invalidates on this side of the fork."""
    inherited = burst_map_cache_stats()
    config = CoreConfig(k=2, n=2)
    cached_burst_cycle_map(weights, config)  # should hit, not recompute
    after_lookup = burst_map_cache_stats()
    writable = weights.copy()
    cached_burst_cycle_map(writable, config)
    writable[:] = 1  # mutate under the child's cache
    child_cycles = cached_burst_cycle_map(writable, config)
    conn.send(
        {
            "inherited": inherited,
            "after_lookup": after_lookup,
            "final": burst_map_cache_stats(),
            "child_cycles_max": int(child_cycles.max()),
        }
    )
    conn.close()


class TestBurstMapCacheAcrossFork:
    """The cache must be safely shareable with forked serving workers:
    warm entries keep hitting in the child, counters travel with it,
    and invalidation keeps working on both sides independently."""

    @pytest.fixture()
    def fork_ctx(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform has no fork start method")
        return multiprocessing.get_context("fork")

    def test_stats_and_warm_entries_survive_fork(self, fork_ctx):
        clear_burst_map_cache()
        config = CoreConfig(k=2, n=2)
        weights = np.full((2, 2, 1, 1), 8, dtype=np.int64)
        parent_map = cached_burst_cycle_map(weights, config)
        parent_before = burst_map_cache_stats()
        assert parent_before["misses"] == 1
        assert not parent_before["inherited"]

        receiver, sender = fork_ctx.Pipe(duplex=False)
        child = fork_ctx.Process(
            target=_fork_child_probe, args=(weights, sender)
        )
        child.start()
        assert receiver.poll(30), "fork child never reported"
        report = receiver.recv()
        child.join(timeout=30)
        assert child.exitcode == 0

        # The child saw the parent's counters and entries...
        assert report["inherited"]["inherited"] is True
        assert report["inherited"]["entries"] == 1
        assert report["inherited"]["misses"] == 1
        # ...its lookup of the warm tensor HIT instead of recomputing...
        assert (
            report["after_lookup"]["hits"]
            == parent_before["hits"] + 1
        )
        assert report["after_lookup"]["misses"] == 1
        # ...and mutation-under-cache still invalidates in the child
        # (the regression this suite pins: stale maps must never be
        # served, in any process).
        assert report["final"]["invalidations"] == 1
        assert report["child_cycles_max"] == 1

        # Process isolation: the child's activity never touched the
        # parent's counters or its cached map.
        assert burst_map_cache_stats() == parent_before
        assert np.array_equal(
            cached_burst_cycle_map(weights, config), parent_map
        )
        assert burst_map_cache_stats()["hits"] == (
            parent_before["hits"] + 1
        )

    def test_clear_claims_cache_for_current_process(self):
        clear_burst_map_cache()
        stats = burst_map_cache_stats()
        assert stats["inherited"] is False
        assert stats["pid"] > 0


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
