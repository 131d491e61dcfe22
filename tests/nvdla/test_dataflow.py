"""Tests for the shared direct-convolution dataflow."""

import numpy as np
import pytest

from repro.errors import DataflowError
from repro.nvdla.dataflow import (
    Atom,
    ConvShape,
    feature_atom,
    golden_conv2d,
    im2col,
    iter_atoms,
    validate_layer,
    weight_atoms,
)
from repro.utils.intrange import INT8
from tests.oracles import golden_conv2d_batched


def shape_3x3(channels=6, size=8, kernels=5, stride=1, padding=1):
    return ConvShape(
        in_channels=channels,
        in_height=size,
        in_width=size,
        out_channels=kernels,
        kernel_h=3,
        kernel_w=3,
        stride=stride,
        padding=padding,
    )


class TestConvShape:
    def test_same_padding_keeps_size(self):
        shape = shape_3x3(size=8, padding=1)
        assert shape.out_height == 8
        assert shape.out_width == 8

    def test_stride_halves(self):
        shape = shape_3x3(size=8, stride=2, padding=1)
        assert shape.out_height == 4

    def test_macs(self):
        shape = shape_3x3(channels=2, size=4, kernels=3)
        assert shape.macs == 4 * 4 * 3 * 2 * 3 * 3

    def test_channel_blocks_round_up(self):
        assert shape_3x3(channels=6).channel_blocks(4) == 2
        assert shape_3x3(channels=8).channel_blocks(4) == 2

    def test_kernel_groups_round_up(self):
        assert shape_3x3(kernels=5).kernel_groups(4) == 2

    def test_kernel_too_big_raises(self):
        with pytest.raises(DataflowError):
            ConvShape(1, 2, 2, 1, 5, 5)

    def test_invalid_dims_raise(self):
        with pytest.raises(DataflowError):
            ConvShape(0, 4, 4, 1, 3, 3)
        with pytest.raises(DataflowError):
            ConvShape(1, 4, 4, 1, 3, 3, padding=-1)


class TestAtomSchedule:
    def test_atom_count(self):
        shape = shape_3x3(channels=6, size=4, kernels=5, padding=1)
        atoms = list(iter_atoms(shape, k=4, n=4))
        expected = (
            shape.kernel_groups(4)
            * shape.output_pixels
            * shape.atoms_per_pixel(4)
        )
        assert len(atoms) == expected

    def test_padding_flagged_out_of_bounds(self):
        shape = shape_3x3(size=4, padding=1)
        atoms = list(iter_atoms(shape, k=4, n=8))
        corner = [
            a
            for a in atoms
            if a.out_y == 0 and a.out_x == 0 and a.ky == 0 and a.kx == 0
        ]
        assert corner and not corner[0].in_bounds

    def test_channel_blocks_cover_all_channels(self):
        shape = shape_3x3(channels=10)
        atoms = list(iter_atoms(shape, k=4, n=4))
        starts = {a.c0 for a in atoms}
        assert starts == {0, 4, 8}
        tail = [a for a in atoms if a.c0 == 8]
        assert all(a.channels == 2 for a in tail)

    def test_group_outer_loop(self):
        shape = shape_3x3(kernels=8)
        atoms = list(iter_atoms(shape, k=4, n=8))
        half = len(atoms) // 2
        assert all(a.group == 0 for a in atoms[:half])
        assert all(a.group == 1 for a in atoms[half:])


class TestAtomExtraction:
    def test_feature_atom_in_bounds(self, rng):
        activations = rng.integers(-10, 10, (6, 5, 5))
        atom = Atom(0, 0, 0, 1, 1, 0, 4, 2, 3, True)
        data = feature_atom(activations, atom, n=4)
        assert list(data) == list(activations[0:4, 2, 3])

    def test_feature_atom_padding_is_zero(self, rng):
        activations = rng.integers(-10, 10, (6, 5, 5))
        atom = Atom(0, 0, 0, 0, 0, 0, 4, -1, 0, False)
        assert feature_atom(activations, atom, n=4).sum() == 0

    def test_feature_atom_partial_block_padded(self, rng):
        activations = rng.integers(1, 10, (6, 5, 5))
        atom = Atom(0, 0, 0, 0, 0, 4, 2, 1, 1, True)
        data = feature_atom(activations, atom, n=4)
        assert data[2] == 0 and data[3] == 0

    def test_weight_atoms_shape_and_padding(self, rng):
        weights = rng.integers(-5, 5, (5, 6, 3, 3))
        atom = Atom(1, 0, 0, 2, 2, 4, 2, 0, 0, True)
        block = weight_atoms(weights, atom, k=4, n=4)
        assert block.shape == (4, 4)
        # group 1 holds only kernel 4; rows 1..3 are padding
        assert (block[1:] == 0).all()
        assert list(block[0, :2]) == list(weights[4, 4:6, 2, 2])


class TestGoldenConv:
    def test_identity_kernel(self):
        x = np.arange(16).reshape(1, 4, 4).astype(np.int64)
        w = np.zeros((1, 1, 1, 1), dtype=np.int64)
        w[0, 0, 0, 0] = 1
        assert np.array_equal(golden_conv2d(x, w), x)

    def test_matches_manual_small_case(self):
        x = np.array([[[1, 2], [3, 4]]], dtype=np.int64)
        w = np.array([[[[1, 0], [0, 1]]]], dtype=np.int64)
        out = golden_conv2d(x, w)
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == 1 + 4

    def test_stride_and_padding(self, rng):
        x = rng.integers(-8, 8, (3, 7, 7))
        w = rng.integers(-8, 8, (4, 3, 3, 3))
        out = golden_conv2d(x, w, stride=2, padding=1)
        assert out.shape == (4, 4, 4)

    def test_channel_mismatch_raises(self):
        with pytest.raises(DataflowError):
            golden_conv2d(np.zeros((2, 4, 4)), np.zeros((1, 3, 3, 3)))

    def test_bad_rank_raises(self):
        with pytest.raises(DataflowError):
            golden_conv2d(np.zeros((4, 4)), np.zeros((1, 1, 3, 3)))

    def test_linearity(self, rng):
        """conv(x, w1 + w2) == conv(x, w1) + conv(x, w2)."""
        x = rng.integers(-10, 10, (3, 6, 6))
        w1 = rng.integers(-10, 10, (2, 3, 3, 3))
        w2 = rng.integers(-10, 10, (2, 3, 3, 3))
        combined = golden_conv2d(x, w1 + w2, padding=1)
        separate = golden_conv2d(x, w1, padding=1) + golden_conv2d(
            x, w2, padding=1
        )
        assert np.array_equal(combined, separate)


class TestIm2col:
    def test_gemm_view_matches_direct_conv(self, rng):
        """im2col @ flattened-weights == golden conv (Sec. II-A)."""
        x = rng.integers(-8, 8, (3, 6, 6))
        w = rng.integers(-8, 8, (4, 3, 3, 3))
        shape = ConvShape(3, 6, 6, 4, 3, 3, stride=1, padding=1)
        columns = im2col(x, shape)
        gemm_out = columns @ w.reshape(4, -1).T  # (pixels, K)
        direct = golden_conv2d(x, w, padding=1)
        assert np.array_equal(
            gemm_out.T.reshape(direct.shape), direct
        )


class TestValidateLayer:
    def test_shape_mismatch_raises(self, rng):
        shape = shape_3x3()
        with pytest.raises(DataflowError):
            validate_layer(
                shape,
                np.zeros((1, 2, 2)),
                np.zeros(shape.weight_shape()),
                INT8,
            )

    def test_range_enforced(self):
        shape = ConvShape(1, 2, 2, 1, 1, 1)
        activations = np.full((1, 2, 2), 1000)
        weights = np.zeros((1, 1, 1, 1))
        with pytest.raises(Exception):
            validate_layer(shape, activations, weights, INT8)


class TestGoldenConv2dBatched:
    """The batched conv oracle of ``tests/oracles.py``."""

    def test_matches_per_image_golden(self):
        from repro.utils.rng import make_rng

        rng = make_rng("batched-conv")
        activations = INT8.random_array(rng, (3, 6, 8, 8))
        weights = INT8.random_array(rng, (5, 6, 3, 3))
        batched = golden_conv2d_batched(
            activations, weights, stride=2, padding=1
        )
        for index in range(3):
            single = golden_conv2d(
                activations[index], weights, stride=2, padding=1
            )
            assert np.array_equal(batched[index], single)

    def test_grouped_matches_per_group(self):
        from repro.utils.rng import make_rng

        rng = make_rng("batched-group")
        groups = 4
        activations = INT8.random_array(rng, (2, 8, 6, 6))
        weights = INT8.random_array(rng, (8, 2, 3, 3))
        batched = golden_conv2d_batched(
            activations, weights, padding=1, groups=groups
        )
        for group in range(groups):
            expected = golden_conv2d(
                activations[0, group * 2 : (group + 1) * 2],
                weights[group * 2 : (group + 1) * 2],
                padding=1,
            )
            assert np.array_equal(
                batched[0, group * 2 : (group + 1) * 2], expected
            )

    def test_asymmetric_padding(self):
        from repro.utils.rng import make_rng

        rng = make_rng("batched-asym")
        activations = INT8.random_array(rng, (2, 3, 7, 7))
        weights = INT8.random_array(rng, (4, 3, 1, 7))
        batched = golden_conv2d_batched(
            activations, weights, padding=(0, 3)
        )
        assert batched.shape == (2, 4, 7, 7)
        padded = np.pad(
            activations, ((0, 0), (0, 0), (0, 0), (3, 3))
        )
        for index in range(2):
            expected = golden_conv2d(padded[index], weights)
            assert np.array_equal(batched[index], expected)

    def test_rejects_bad_shapes(self):
        with pytest.raises(DataflowError):
            golden_conv2d_batched(
                np.zeros((2, 3, 4, 4)), np.zeros((4, 5, 3, 3))
            )
        with pytest.raises(DataflowError):
            golden_conv2d_batched(
                np.zeros((2, 3, 4, 4)),
                np.zeros((4, 3, 3, 3)),
                stride=0,
            )
        with pytest.raises(DataflowError):
            golden_conv2d_batched(
                np.zeros((3, 4, 4)), np.zeros((4, 3, 3, 3))
            )
        with pytest.raises(DataflowError):
            golden_conv2d_batched(
                np.zeros((2, 4, 4, 4)),
                np.zeros((3, 2, 3, 3)),
                groups=2,
            )
