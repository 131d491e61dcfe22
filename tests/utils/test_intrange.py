"""Tests for the integer precision specs."""

import numpy as np
import pytest

from repro.errors import PrecisionError
from repro.utils.intrange import INT2, INT4, INT8, IntSpec, int_spec


class TestRanges:
    def test_int8_range(self):
        assert INT8.min_value == -128
        assert INT8.max_value == 127

    def test_int4_range(self):
        assert INT4.min_value == -8
        assert INT4.max_value == 7

    def test_int2_range(self):
        assert INT2.min_value == -2
        assert INT2.max_value == 1

    def test_max_magnitude_is_most_negative_code(self):
        for spec in (INT2, INT4, INT8):
            assert spec.max_magnitude == -spec.min_value

    def test_levels(self):
        assert INT8.levels == 256
        assert INT4.levels == 16

    def test_name(self):
        assert INT8.name == "INT8"


class TestWorstCaseCycles:
    """Paper Sec. V-C: worst-case tub latencies per precision."""

    def test_int8_worst_case_is_64(self):
        assert INT8.worst_case_tub_cycles == 64

    def test_int4_worst_case_is_4(self):
        assert INT4.worst_case_tub_cycles == 4

    def test_int2_worst_case_is_1(self):
        assert INT2.worst_case_tub_cycles == 1


class TestValidation:
    def test_contains(self):
        assert INT4.contains(7)
        assert INT4.contains(-8)
        assert not INT4.contains(8)
        assert not INT4.contains(-9)

    def test_check_passes_in_range(self):
        assert INT8.check(-128) == -128

    def test_check_raises_out_of_range(self):
        with pytest.raises(PrecisionError):
            INT8.check(128)

    def test_check_array_raises(self):
        with pytest.raises(PrecisionError):
            INT4.check_array(np.array([0, 9]))

    def test_check_array_returns_int64(self):
        out = INT4.check_array(np.array([1, -8], dtype=np.int8))
        assert out.dtype == np.int64

    def test_check_array_rejects_fractional_floats(self):
        """Regression: an in-range 2.7 used to silently truncate to 2;
        fractional values must raise instead."""
        with pytest.raises(PrecisionError):
            INT8.check_array(np.array([2.7]))

    def test_check_array_accepts_exact_integer_floats(self):
        out = INT8.check_array(np.array([2.0, -5.0]))
        assert out.dtype == np.int64
        assert list(out) == [2, -5]

    def test_check_array_rejects_nan_and_inf(self):
        with pytest.raises(PrecisionError):
            INT8.check_array(np.array([np.nan]))
        with pytest.raises(PrecisionError):
            INT8.check_array(np.array([np.inf]))

    def test_check_array_rejects_non_numeric_dtypes(self):
        with pytest.raises(PrecisionError):
            INT8.check_array(np.array([True, False]))
        with pytest.raises(PrecisionError):
            INT8.check_array(np.array([1 + 0j]))

    def test_check_array_rejects_time_dtypes(self):
        """Regression: NumPy files timedelta64 under ``np.integer``, so
        an in-range duration array used to validate as integers."""
        with pytest.raises(PrecisionError, match="timedelta64"):
            INT8.check_array(np.array([1, 2, 3], dtype="m8[s]"))
        with pytest.raises(PrecisionError, match="datetime64"):
            INT8.check_array(np.array([1, 2, 3], dtype="M8[s]"))

    def test_check_array_preserves_int64_identity(self):
        arr = np.array([1, 2], dtype=np.int64)
        assert INT8.check_array(arr) is arr

    def test_clip_saturates(self):
        clipped = INT4.clip(np.array([100, -100, 3]))
        assert list(clipped) == [7, -8, 3]

    def test_empty_array_ok(self):
        assert INT8.check_array(np.array([])).size == 0

    def test_random_array_in_range(self, rng):
        values = INT4.random_array(rng, (100,))
        assert values.min() >= -8
        assert values.max() <= 7

    def test_invalid_width_rejected(self):
        with pytest.raises(PrecisionError):
            IntSpec(1)


class TestLookup:
    def test_by_width(self):
        assert int_spec(8) is INT8

    def test_by_name(self):
        assert int_spec("INT4") is INT4
        assert int_spec("int4") is INT4

    def test_by_spec_identity(self):
        assert int_spec(INT2) is INT2

    def test_unknown_name_raises(self):
        with pytest.raises(PrecisionError):
            int_spec("FP16")

    def test_garbage_name_raises(self):
        with pytest.raises(PrecisionError):
            int_spec("INTx")

    def test_nonstandard_width_allowed(self):
        assert int_spec(6).max_value == 31
