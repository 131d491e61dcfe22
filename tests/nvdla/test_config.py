"""Tests for the core configuration."""

import pytest

from repro.errors import DataflowError
from repro.nvdla.config import ARRAY_16X16, ARRAY_16X4_INT4, NV_SMALL, CoreConfig
from repro.nvdla.hwmodel import accumulator_width
from repro.utils.intrange import INT4, INT8


class TestCoreConfig:
    def test_nv_small_is_8x8_int8(self):
        assert NV_SMALL.k == 8
        assert NV_SMALL.n == 8
        assert NV_SMALL.precision is INT8

    def test_paper_array_presets(self):
        assert ARRAY_16X16.k * ARRAY_16X16.n == 256
        assert ARRAY_16X4_INT4.precision.width == 4

    def test_precision_coercion(self):
        assert CoreConfig(precision=4).precision is INT4
        assert CoreConfig(precision="INT8").precision is INT8

    def test_accumulator_width(self):
        # 16 products of 16 bits each -> 20-bit sum.
        assert accumulator_width(INT8, 16) == 20
        # INT4: 8-bit products, n=4 -> 10 bits.
        assert accumulator_width(INT4, 4) == 10

    def test_with_precision(self):
        config = ARRAY_16X16.with_precision(4)
        assert config.precision is INT4
        assert config.k == 16

    def test_invalid_geometry(self):
        with pytest.raises(DataflowError):
            CoreConfig(k=0)
        with pytest.raises(DataflowError):
            CoreConfig(n=-1)
        with pytest.raises(DataflowError):
            CoreConfig(pipeline_latency=-1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 2.5},
            {"n": "8"},
            {"k": True},
            {"pipeline_latency": 1.0},
            {"burst_overhead": None},
        ],
        ids=["float-k", "string-n", "bool-k", "float-latency",
             "none-overhead"],
    )
    def test_non_integral_fields_rejected(self, kwargs):
        with pytest.raises(DataflowError, match="must be an integer"):
            CoreConfig(**kwargs)

    def test_integral_numpy_ints_coerced_to_int(self):
        # Integral subtypes (numpy ints) are accepted and stored as
        # plain ints so the frozen config hashes/serializes stably.
        import numpy as np

        config = CoreConfig(k=np.int64(16), n=np.int32(4))
        assert (config.k, config.n) == (16, 4)
        assert type(config.k) is int and type(config.n) is int

    def test_describe(self):
        assert ARRAY_16X16.describe() == "16x16 INT8"
