"""Tests for the PDP pooling engine."""

import numpy as np
import pytest

from repro.errors import DataflowError
from repro.nvdla.pdp import Pdp, PdpConfig


class TestMaxPool:
    def test_2x2(self):
        pdp = Pdp(PdpConfig("max", kernel=2))
        values = np.array([[[1, 2, 5, 6], [3, 4, 7, 8],
                            [-1, -2, -5, -6], [-3, -4, -7, -8]]])
        out = pdp.apply(values)
        assert out.shape == (1, 2, 2)
        assert out[0, 0, 0] == 4
        assert out[0, 0, 1] == 8
        assert out[0, 1, 0] == -1
        assert out[0, 1, 1] == -5

    def test_padding_never_wins(self):
        pdp = Pdp(PdpConfig("max", kernel=3, stride=1, padding=1))
        values = np.full((1, 2, 2), -9, dtype=np.int64)
        out = pdp.apply(values)
        assert (out == -9).all()

    def test_overlapping_stride(self):
        pdp = Pdp(PdpConfig("max", kernel=3, stride=2, padding=1))
        values = np.arange(16).reshape(1, 4, 4)
        assert pdp.apply(values).shape == (1, 2, 2)


class TestAveragePool:
    def test_exact_average(self):
        pdp = Pdp(PdpConfig("average", kernel=2))
        values = np.array([[[2, 4], [6, 8]]])
        assert pdp.apply(values)[0, 0, 0] == 5

    def test_rounding(self):
        pdp = Pdp(PdpConfig("average", kernel=2))
        values = np.array([[[1, 1], [1, 2]]])  # mean 1.25 -> 1
        assert pdp.apply(values)[0, 0, 0] == 1
        values = np.array([[[1, 2], [2, 2]]])  # mean 1.75 -> 2
        assert pdp.apply(values)[0, 0, 0] == 2

    def test_matches_numpy_mean_within_one(self, rng):
        pdp = Pdp(PdpConfig("average", kernel=3))
        values = rng.integers(-100, 100, (4, 9, 9))
        out = pdp.apply(values)
        reference = values.reshape(4, 3, 3, 3, 3).swapaxes(2, 3)
        reference = reference.reshape(4, 3, 3, 9).mean(axis=-1)
        assert np.max(np.abs(out - np.round(reference))) <= 1


class TestValidation:
    def test_bad_mode(self):
        with pytest.raises(DataflowError):
            PdpConfig("median", kernel=2)

    def test_window_too_big(self):
        pdp = Pdp(PdpConfig("max", kernel=5))
        with pytest.raises(DataflowError):
            pdp.apply(np.zeros((1, 3, 3), dtype=np.int64))

    def test_bad_rank(self):
        with pytest.raises(DataflowError):
            Pdp(PdpConfig("max", kernel=2)).apply(np.zeros((3, 3)))

    def test_default_stride_is_kernel(self):
        assert PdpConfig("max", kernel=3).stride == 3


class TestPdpBatch:
    def test_apply_many_matches_per_image(self, rng):
        for mode, kernel, padding in (
            ("max", 2, 0),
            ("max", 3, 1),
            ("average", 2, 0),
        ):
            pdp = Pdp(PdpConfig(mode, kernel=kernel, padding=padding))
            values = rng.integers(-100, 100, (3, 4, 8, 8))
            batched = pdp.apply_many(values)
            stacked = np.stack([pdp.apply(image) for image in values])
            assert np.array_equal(batched, stacked)

    def test_apply_many_keeps_a_channels_last_layout(self, rng):
        """A (B, K, H, W) batch stored channels-last (as the batched
        executor's stage outputs are) pools to a channels-last result,
        equal to per-image :meth:`apply`, with no transposing copy."""
        for mode in ("max", "average"):
            pdp = Pdp(PdpConfig(mode, kernel=3, stride=2))
            stored = rng.integers(-100, 100, (3, 9, 9, 5))
            values = stored.transpose(0, 3, 1, 2)
            batched = pdp.apply_many(values)
            stacked = np.stack([pdp.apply(image) for image in values])
            assert np.array_equal(batched, stacked), mode
            assert batched.transpose(0, 2, 3, 1).flags.c_contiguous

    def test_apply_many_rank_checked(self):
        with pytest.raises(DataflowError):
            Pdp(PdpConfig("max", kernel=2)).apply_many(
                np.zeros((4, 8, 8))
            )


def _pool_per_window(config: PdpConfig, values: np.ndarray) -> np.ndarray:
    """Reference pooling: one window at a time, written out plainly."""
    channels, height, width = values.shape
    pad = config.padding
    fill = np.iinfo(np.int64).min if config.mode == "max" else 0
    padded = np.full(
        (channels, height + 2 * pad, width + 2 * pad), fill, dtype=np.int64
    )
    padded[:, pad : pad + height, pad : pad + width] = values
    out_h = (height + 2 * pad - config.kernel) // config.stride + 1
    out_w = (width + 2 * pad - config.kernel) // config.stride + 1
    out = np.empty((channels, out_h, out_w), dtype=np.int64)
    recip = round(65536 / (config.kernel * config.kernel))
    for channel in range(channels):
        for row in range(out_h):
            for col in range(out_w):
                top, left = row * config.stride, col * config.stride
                window = padded[
                    channel,
                    top : top + config.kernel,
                    left : left + config.kernel,
                ]
                if config.mode == "max":
                    out[channel, row, col] = window.max()
                else:
                    scaled = int(window.sum()) * recip
                    # Round half away from zero, as the hardware does.
                    magnitude = (abs(scaled) + 32768) >> 16
                    out[channel, row, col] = (
                        magnitude if scaled >= 0 else -magnitude
                    )
    return out


def test_apply_matches_per_window_reference(fuzz_rng):
    """Seeded configs — overlapping and gapped windows, padding,
    negative averages — against the plain per-window loop above."""
    for _ in range(60):
        kernel = int(fuzz_rng.integers(1, 5))
        config = PdpConfig(
            str(fuzz_rng.choice(("max", "average"))),
            kernel=kernel,
            stride=int(fuzz_rng.integers(1, kernel + 2)),
            padding=int(fuzz_rng.integers(0, kernel)),
        )
        channels = int(fuzz_rng.integers(1, 4))
        height = int(fuzz_rng.integers(kernel, kernel + 7))
        width = int(fuzz_rng.integers(kernel, kernel + 7))
        values = fuzz_rng.integers(-128, 128, (channels, height, width))
        got = Pdp(config).apply(values)
        assert np.array_equal(got, _pool_per_window(config, values)), config
    # Half-way averages round away from zero on both signs.
    config = PdpConfig("average", kernel=2)
    halves = np.array([[[1, 1], [0, 0]], [[-1, -1], [0, 0]]])
    assert np.array_equal(
        Pdp(config).apply(halves), _pool_per_window(config, halves)
    )
    assert Pdp(config).apply(halves)[:, 0, 0].tolist() == [1, -1]


@pytest.mark.parametrize("mode", ("max", "average"))
def test_unpadded_pool_pads_nothing(fuzz_rng, monkeypatch, mode):
    """Padding 0 (every lowered pool) pools the input in place of a
    zero-width ``np.pad`` copy, leaves the caller's array unchanged and
    still equals the per-window reference."""
    config = PdpConfig(mode, kernel=2)
    values = fuzz_rng.integers(-128, 128, (3, 6, 6))
    snapshot = values.copy()

    def refuse(*args, **kwargs):
        raise AssertionError("np.pad called at padding 0")

    monkeypatch.setattr(np, "pad", refuse)
    got = Pdp(config).apply(values)
    assert np.array_equal(values, snapshot)
    assert np.array_equal(got, _pool_per_window(config, values))


def test_int32_max_pool_keeps_its_dtype_and_layout(fuzz_rng):
    """An int32 channels-last batch (a hidden stage output of the
    batched executor) and a float32 channels-last batch (the exact
    psums the executor pools before its SDP epilogue) max-pool to the
    int64 pool's values, keep their dtype and stay channels-last, over
    seeded windows with and without padding; padding (int32's minimum,
    or -inf) never wins, even where every value is negative.  Average
    pooling, whose reciprocal multiply needs 64 bits, still returns
    int64 with the int64 pool's values."""
    padded_configs = 0
    for _ in range(30):
        kernel = int(fuzz_rng.integers(1, 4))
        config = PdpConfig(
            "max",
            kernel=kernel,
            stride=int(fuzz_rng.integers(1, kernel + 2)),
            padding=int(fuzz_rng.integers(0, kernel)),
        )
        padded_configs += config.padding > 0
        height = int(fuzz_rng.integers(kernel, kernel + 6))
        width = int(fuzz_rng.integers(kernel, kernel + 6))
        stored = fuzz_rng.integers(
            -128, 128, (2, height, width, int(fuzz_rng.integers(1, 6)))
        )
        expected = Pdp(config).apply_many(stored.transpose(0, 3, 1, 2))
        for dtype in (np.int32, np.float32):
            values = stored.astype(dtype).transpose(0, 3, 1, 2)
            got = Pdp(config).apply_many(values)
            context = (config, dtype)
            assert got.dtype == dtype, context
            assert got.transpose(0, 2, 3, 1).flags.c_contiguous, context
            assert np.array_equal(got, expected), context
    assert padded_configs > 0
    for dtype in (np.int32, np.float32):
        negative = np.full((1, 3, 3, 2), -9, dtype=dtype).transpose(
            0, 3, 1, 2
        )
        padded = Pdp(PdpConfig("max", kernel=3, stride=1, padding=1))
        got = padded.apply_many(negative)
        assert got.dtype == dtype
        assert got.transpose(0, 2, 3, 1).flags.c_contiguous
        assert (got == -9).all()
    average = Pdp(PdpConfig("average", kernel=2))
    values = fuzz_rng.integers(-128, 128, (2, 3, 6, 6)).astype(np.int32)
    got = average.apply_many(values)
    assert got.dtype == np.int64
    assert np.array_equal(got, average.apply_many(values.astype(np.int64)))
