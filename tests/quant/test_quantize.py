"""Tests for the quantizers."""

import numpy as np
import pytest

from repro.errors import CalibrationError
from repro.quant.quantize import (
    SymmetricQuantizer,
    fake_quantize,
    quantize_per_tensor,
)
from repro.utils.intrange import INT4, INT8


class TestSymmetric:
    def test_zero_maps_to_zero_code(self):
        quantizer = SymmetricQuantizer.from_threshold(INT8, 1.0)
        assert quantizer.quantize(np.array([0.0]))[0] == 0

    def test_threshold_maps_to_max_code(self):
        quantizer = SymmetricQuantizer.from_threshold(INT8, 2.0)
        assert quantizer.quantize(np.array([2.0]))[0] == 127

    def test_saturation(self):
        quantizer = SymmetricQuantizer.from_threshold(INT8, 1.0)
        codes = quantizer.quantize(np.array([100.0, -100.0]))
        assert list(codes) == [127, -128]

    def test_dequantize_inverse_within_half_step(self, rng):
        quantizer = SymmetricQuantizer.from_threshold(INT8, 1.0)
        values = rng.uniform(-1, 1, 100)
        recovered = quantizer.dequantize(quantizer.quantize(values))
        assert np.all(np.abs(recovered - values) <= quantizer.scale / 2 + 1e-12)

    def test_nonpositive_threshold_raises(self):
        with pytest.raises(CalibrationError):
            SymmetricQuantizer.from_threshold(INT8, 0.0)

    def test_nonpositive_scale_raises(self):
        with pytest.raises(CalibrationError):
            SymmetricQuantizer(INT8, 0.0)


class TestPerTensor:
    def test_codes_in_range(self, rng):
        qt = quantize_per_tensor(rng.normal(0, 1, 500), INT4)
        assert qt.data.max() <= 7
        assert qt.data.min() >= -8

    def test_minmax_never_saturates_more_than_extremes(self, rng):
        values = rng.normal(0, 1, 500)
        qt = quantize_per_tensor(values, INT8)
        peak = np.abs(values).max()
        index = int(np.abs(values).argmax())
        assert abs(qt.data[index]) == 127

    def test_percentile_clips(self, rng):
        values = rng.normal(0, 1, 5000)
        values[0] = 100.0
        qt = quantize_per_tensor(values, INT8, percentile=99.0)
        assert qt.data[0] in (127, -128)


class TestFakeQuantize:
    def test_shape_preserved(self, rng):
        values = rng.normal(0, 1, (5, 6))
        assert fake_quantize(values, INT8).shape == (5, 6)

    def test_error_bounded_by_half_step(self, rng):
        values = rng.normal(0, 1, 1000)
        peak = np.abs(values).max()
        step = peak / 127
        error = np.abs(fake_quantize(values, INT8) - values)
        assert error.max() <= step / 2 + 1e-12

    def test_lower_precision_more_error(self, rng):
        values = rng.normal(0, 1, 2000)
        err8 = np.abs(fake_quantize(values, INT8) - values).mean()
        err4 = np.abs(fake_quantize(values, INT4) - values).mean()
        assert err4 > err8
