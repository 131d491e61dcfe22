"""Tests for the quantized tensor container."""

import numpy as np
import pytest

from repro.errors import PrecisionError
from repro.quant.qtensor import QuantizedTensor
from repro.utils.intrange import INT4, INT8


class TestValidation:
    def test_out_of_range_codes_rejected(self):
        with pytest.raises(PrecisionError):
            QuantizedTensor(np.array([200]), INT8, np.float64(1.0))


class TestStats:
    def test_zero_fraction(self):
        qt = QuantizedTensor(
            np.array([0, 0, 1, -1]), INT4, np.float64(0.1)
        )
        assert qt.zero_fraction() == 0.5

    def test_magnitudes(self):
        qt = QuantizedTensor(np.array([-3, 2]), INT4, np.float64(1.0))
        assert list(qt.magnitudes()) == [3, 2]

    def test_shape_and_size(self):
        qt = QuantizedTensor(
            np.zeros((2, 3), dtype=np.int64), INT8, np.float64(1.0)
        )
        assert qt.shape == (2, 3)
        assert qt.size == 6

    def test_dequantize_per_tensor(self):
        qt = QuantizedTensor(np.array([2, -4]), INT8, np.float64(0.5))
        assert list(qt.dequantize()) == [1.0, -2.0]
