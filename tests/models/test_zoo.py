"""Tests for the model zoo topologies."""

import pytest

from repro.errors import DataflowError
from repro.models.zoo import (
    MODEL_NAMES,
    TABLE1_LABELS,
    build_model,
)


class TestAllModels:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_buildable(self, name):
        spec = build_model(name)
        assert len(spec.layers) > 10
        assert spec.total_weights > 1_000_000

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_channel_continuity(self, name):
        """Within the builder, every layer's channels divide its groups —
        guaranteed by construction, checked defensively."""
        for layer in build_model(name).layers:
            assert layer.in_channels % layer.groups == 0

    def test_labels_cover_all_models(self):
        assert set(TABLE1_LABELS) == set(MODEL_NAMES)

    def test_unknown_model_raises(self):
        with pytest.raises(DataflowError):
            build_model("alexnet")


class TestPublishedSizes:
    """Conv-weight totals should be close to the published parameter
    counts (classifier excluded)."""

    def test_mobilenet_v2_conv_weights(self):
        total = build_model("mobilenet_v2").total_weights
        assert 2.0e6 < total < 2.4e6  # 3.4M total - 1.3M classifier

    def test_resnet18(self):
        total = build_model("resnet18").total_weights
        assert 10.5e6 < total < 11.7e6

    def test_resnet50(self):
        total = build_model("resnet50").total_weights
        assert 22e6 < total < 25e6

    def test_resnext101_32x8d(self):
        total = build_model("resnext101").total_weights
        assert 80e6 < total < 92e6

    def test_googlenet(self):
        total = build_model("googlenet").total_weights
        assert 5.5e6 < total < 6.5e6

    def test_inception_v3(self):
        total = build_model("inception_v3").total_weights
        assert 20e6 < total < 24e6


class TestStructure:
    def test_mobilenet_v2_has_depthwise(self):
        layers = build_model("mobilenet_v2").layers
        assert any(layer.is_depthwise for layer in layers)

    def test_resnext_has_grouped_convs(self):
        layers = build_model("resnext101").layers
        assert any(layer.groups == 32 for layer in layers)

    def test_inception_has_rectangular_kernels(self):
        layers = build_model("inception_v3").layers
        assert any(
            layer.kernel_h != layer.kernel_w for layer in layers
        )

    def test_spatial_sizes_positive(self):
        for name in MODEL_NAMES:
            for layer in build_model(name).layers:
                assert layer.out_height >= 1, layer.name
                assert layer.out_width >= 1, layer.name

    def test_scaled_model_smaller(self):
        full = build_model("resnet18")
        half = build_model("resnet18", scale=0.5)
        assert half.total_weights < full.total_weights / 2.5
