"""Tests for weight-magnitude profiling (Fig. 7)."""

import numpy as np
import pytest

from repro.models.weights import load_quantized_model
from repro.profiling.magnitude import (
    MagnitudeProfile,
    profile_model_magnitudes,
)
from repro.unary.encoding import PureUnaryCode


@pytest.fixture(scope="module")
def profile() -> MagnitudeProfile:
    model = load_quantized_model("mobilenet_v2", scale=0.25)
    return profile_model_magnitudes(model)


class TestProfile:
    def test_histogram_length_is_max_magnitude_plus_one(self, profile):
        assert len(profile.histogram) == 129  # INT8: 0..128

    def test_total_tiles_positive(self, profile):
        assert profile.total_tiles > 100

    def test_mean_magnitude_in_range(self, profile):
        assert 0 < profile.mean_magnitude() <= 128

    def test_mean_latency_halves_magnitude(self, profile):
        mean_mag = profile.mean_magnitude()
        mean_lat = profile.mean_latency_cycles()
        assert mean_lat == pytest.approx(mean_mag / 2, rel=0.05)

    def test_pure_unary_doubles_latency(self, profile):
        twos = profile.mean_latency_cycles()
        pure = profile.mean_latency_cycles(PureUnaryCode())
        assert pure == pytest.approx(2 * twos, rel=0.05)

    def test_rows_cover_histogram(self, profile):
        rows = profile.to_rows()
        assert len(rows) == 129
        assert sum(count for _, count in rows) == profile.total_tiles

    def test_binned_rows_sum_matches(self, profile):
        binned = profile.binned_rows(bins=8)
        assert sum(count for _, count in binned) == profile.total_tiles


class TestKnownTensor:
    def test_single_tile_histogram(self):
        """A hand-built model-free check through the same pooling code."""
        from repro.profiling.tiling import tile_max_magnitudes

        weights = np.zeros((16, 16, 1, 1), dtype=np.int64)
        weights[3, 5] = -77
        maxima = tile_max_magnitudes(weights, 16, 16)
        assert maxima.reshape(-1).tolist() == [77]
