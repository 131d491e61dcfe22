"""Tests for sparsity profiling (Table I / Fig. 8)."""

import pytest

from repro.models.weights import load_quantized_model
from repro.profiling.sparsity import profile_model_sparsity


@pytest.fixture(scope="module")
def profile():
    model = load_quantized_model("mobilenet_v2", scale=0.25)
    return profile_model_sparsity(model)


class TestSparsityProfile:
    def test_histogram_sums_to_tiles(self, profile):
        assert profile.silent_histogram.sum() == profile.total_tiles

    def test_mean_silent_reasonable(self, profile):
        assert 0 < profile.mean_silent_pes() < 30

    def test_active_complements_silent(self, profile):
        assert profile.mean_active_pes() == pytest.approx(
            256 - profile.mean_silent_pes()
        )

    def test_rows_format(self, profile):
        rows = profile.to_rows()
        assert len(rows) == 257
        assert all(count >= 0 for _, count in rows)

    def test_word_sparsity_carried(self, profile):
        assert 0 < profile.word_sparsity < 0.2
