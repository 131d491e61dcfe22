"""Tests for zoo -> pipeline-stage lowering."""

import numpy as np
import pytest

from repro.core.scheduling import search_stage_orders
from repro.errors import DataflowError
from repro.models.weights import load_quantized_model
from repro.nvdla.config import CoreConfig
from repro.runtime.lowering import lower_model, stage_atoms
from repro.utils.intrange import INT4


@pytest.fixture(scope="module")
def config():
    return CoreConfig(k=4, n=4)


@pytest.fixture(scope="module")
def mobilenet(config):
    model = load_quantized_model("mobilenet_v2", scale=0.06)
    return lower_model(model, config, input_size=16)


class TestLowerModel:
    def test_one_stage_per_conv_layer(self, mobilenet):
        model = load_quantized_model("mobilenet_v2", scale=0.06)
        assert len(mobilenet.stages) == len(model.layers)
        assert mobilenet.name == "mobilenet_v2"

    def test_input_shape_is_rescaled_first_layer(self, mobilenet):
        channels, height, width = mobilenet.input_shape
        first = mobilenet.stages[0].layer
        assert channels == first.in_channels
        assert height == width == 16

    def test_grouped_layers_split_per_group(self, mobilenet):
        depthwise = [
            stage for stage in mobilenet.stages if stage.layer.is_depthwise
        ]
        assert depthwise, "MobileNetV2 must lower depthwise stages"
        stage = depthwise[0]
        assert stage.weights.shape == (
            stage.layer.groups,
            stage.layer.out_channels // stage.layer.groups,
            1,
            stage.layer.kernel_h,
            stage.layer.kernel_w,
        )

    def test_pool_inserted_at_reduction_seams(self, config):
        # ResNet's stem (stride-2 conv at 112) feeds layer1 at 56 only
        # through the max pool the zoo recorded.
        model = load_quantized_model("resnet18", scale=0.06)
        net = lower_model(model, config, input_size=64)
        assert net.stages[1].pool is not None
        assert net.stages[0].pool is None

    def test_branchy_models_lower(self, config):
        for name in ("googlenet", "inception_v3"):
            model = load_quantized_model(name, scale=0.04)
            net = lower_model(model, config, input_size=20)
            assert len(net.stages) == len(model.layers)

    def test_precision_mismatch_rejected(self):
        model = load_quantized_model("resnet18", scale=0.06)
        with pytest.raises(DataflowError):
            lower_model(model, CoreConfig(k=4, n=4, precision=INT4))

    def test_bad_input_size_rejected(self, config):
        model = load_quantized_model("resnet18", scale=0.06)
        with pytest.raises(DataflowError):
            lower_model(model, config, input_size=448)

    def test_macs_follow_rescaled_layers(self, mobilenet):
        assert mobilenet.macs_per_image == sum(
            stage.layer.macs for stage in mobilenet.stages
        )


@pytest.mark.parametrize("precision", ("int8", "int4"))
@pytest.mark.parametrize("model", ("mobilenet_v2", "resnet18", "tiny_llm"))
def test_plan_holds_natural_weights_and_tile_orders(model, precision):
    """Every lowered stage holds one read-only natural-order view of its
    layer's codes plus per-group kernel/channel permutations.  A
    group's orders are both the identity exactly when its search saved
    no cycles, and the tile-order stack is each group's scheduled
    tensor.  Scheduling permutes tiles, never the stored weights: the
    unscheduled lowering holds the same view with identity orders."""
    quantized = load_quantized_model(model, precision, scale=0.06)
    config = CoreConfig(k=4, n=4, precision=quantized.precision)
    net = lower_model(quantized, config, input_size=16)
    plain = lower_model(quantized, config, input_size=16, scheduling=False)
    weighted = [q for q in quantized.layers if q.layer.is_weighted]
    assert len(net.stages) == len(plain.stages) == len(weighted)
    permuted_anywhere = False
    for stage, bare, layer in zip(net.stages, plain.stages, weighted):
        groups, kernels, channels = stage.weights.shape[:3]
        assert groups == stage.groups
        assert stage.weights.shape[1:] == (
            (kernels, channels) + layer.codes64.shape[2:]
        )
        for plan in (stage, bare):
            assert not plan.weights.flags.writeable
            assert np.shares_memory(plan.weights, layer.codes64)
            assert plan.kernel_order.shape == (groups, kernels)
            assert plan.channel_order.shape == (groups, channels)
        assert np.array_equal(stage.weights, bare.weights)
        assert (bare.kernel_order == np.arange(kernels)).all()
        assert (bare.channel_order == np.arange(channels)).all()
        kernel_orders, channel_orders, baselines, optimized = \
            search_stage_orders(stage.weights, stage.config, net.code)
        scheduled = stage.scheduled_weights()
        for group in range(groups):
            kernel_order = stage.kernel_order[group]
            channel_order = stage.channel_order[group]
            assert np.array_equal(np.sort(kernel_order), np.arange(kernels))
            assert np.array_equal(
                np.sort(channel_order), np.arange(channels)
            )
            identity = np.array_equal(
                kernel_order, np.arange(kernels)
            ) and np.array_equal(channel_order, np.arange(channels))
            saved = baselines[group] - optimized[group]
            assert identity == (saved == 0), stage.name
            permuted_anywhere |= not identity
            assert np.array_equal(
                scheduled[group],
                stage.weights[group][kernel_orders[group]][
                    :, channel_orders[group]
                ],
            )
    assert permuted_anywhere, "scheduling never engaged"


class TestStageAtoms:
    def test_matches_conv_shape_for_dense_layers(self, mobilenet, config):
        from repro.nvdla.dataflow import ConvShape

        for stage in mobilenet.stages:
            if stage.layer.groups != 1:
                continue
            layer = stage.layer
            shape = ConvShape(
                in_channels=layer.in_channels,
                in_height=layer.in_height,
                in_width=layer.in_width,
                out_channels=layer.out_channels,
                kernel_h=layer.kernel_h,
                kernel_w=layer.kernel_w,
                stride=layer.stride,
                padding=layer.padding_h,
            )
            expected = (
                shape.kernel_groups(config.k)
                * shape.output_pixels
                * shape.atoms_per_pixel(config.n)
            )
            assert stage_atoms(stage, config) == expected
