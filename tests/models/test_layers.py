"""Tests for the conv layer IR."""

import pytest

from repro.errors import DataflowError
from repro.models.layers import ConvLayerSpec


def layer(**overrides):
    base = dict(
        name="test.conv",
        in_channels=32,
        out_channels=64,
        kernel_h=3,
        kernel_w=3,
        stride=1,
        padding=1,
        in_height=56,
        in_width=56,
    )
    base.update(overrides)
    return ConvLayerSpec(**base)


class TestGeometry:
    def test_weight_shape_dense(self):
        assert layer().weight_shape == (64, 32, 3, 3)

    def test_weight_shape_grouped(self):
        grouped = layer(groups=4)
        assert grouped.weight_shape == (64, 8, 3, 3)
        assert grouped.channels_per_group == 8

    def test_depthwise_detection(self):
        dw = layer(in_channels=32, out_channels=32, groups=32)
        assert dw.is_depthwise
        assert dw.weight_shape == (32, 1, 3, 3)

    def test_pointwise_detection(self):
        pw = layer(kernel_h=1, kernel_w=1, padding=0)
        assert (pw.kernel_h, pw.kernel_w) == (1, 1)

    def test_output_size_same_padding(self):
        assert layer().out_height == 56

    def test_output_size_stride2(self):
        assert layer(stride=2).out_height == 28

    def test_asymmetric_padding(self):
        rect = layer(kernel_h=1, kernel_w=7, padding=(0, 3))
        assert rect.out_height == 56
        assert rect.out_width == 56

    def test_macs(self):
        simple = layer(
            in_channels=2, out_channels=3, in_height=4, in_width=4
        )
        assert simple.macs == 4 * 4 * 3 * 2 * 9


class TestValidation:
    def test_groups_must_divide_channels(self):
        with pytest.raises(DataflowError):
            layer(groups=5)

    def test_groups_must_divide_out_channels(self):
        with pytest.raises(DataflowError):
            layer(out_channels=66, groups=4)

    def test_conv_shape_needs_symmetric_padding(self):
        rect = layer(kernel_h=1, kernel_w=7, padding=(0, 3))
        with pytest.raises(DataflowError):
            rect.conv_shape()

    def test_conv_shape_per_group(self):
        grouped = layer(groups=4)
        shape = grouped.conv_shape()
        assert shape.in_channels == 8
        assert shape.out_channels == 16


class TestScaling:
    def test_scaled_halves_channels(self):
        half = layer().scaled(0.5)
        assert half.in_channels == 16
        assert half.out_channels == 32

    def test_scaled_depthwise_stays_depthwise(self):
        dw = layer(in_channels=32, out_channels=32, groups=32).scaled(0.5)
        assert dw.is_depthwise

    def test_scaled_grouped_stays_divisible(self):
        grouped = layer(groups=4).scaled(0.3)
        assert grouped.in_channels % grouped.groups == 0

    def test_invalid_factor(self):
        with pytest.raises(DataflowError):
            layer().scaled(0.0)
        with pytest.raises(DataflowError):
            layer().scaled(1.5)
