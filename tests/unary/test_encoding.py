"""Tests for pure-unary and 2s-unary codes."""

import numpy as np
import pytest

from repro.errors import EncodingError
from repro.unary.encoding import (
    PureUnaryCode,
    TwosUnaryCode,
)


class TestTwosUnary:
    code = TwosUnaryCode()

    def test_even_magnitude_all_twos(self):
        assert self.code.encode_magnitude(6) == (2, 2, 2)

    def test_odd_magnitude_trailing_one(self):
        assert self.code.encode_magnitude(7) == (2, 2, 2, 1)

    def test_zero_is_empty(self):
        assert self.code.encode_magnitude(0) == ()

    def test_one(self):
        assert self.code.encode_magnitude(1) == (1,)

    def test_cycles_is_ceil_half(self):
        for magnitude in range(0, 129):
            assert self.code.cycles_for_magnitude(magnitude) == (
                magnitude + 1
            ) // 2

    def test_negative_value_sign(self):
        stream = self.code.encode(-5)
        assert stream.negative
        assert stream.value == -5

    def test_int8_worst_case_64_cycles(self):
        assert self.code.cycles_for(-128) == 64

    def test_int4_worst_case_4_cycles(self):
        assert self.code.cycles_for(-8) == 4

    def test_negative_magnitude_rejected(self):
        with pytest.raises(EncodingError):
            self.code.encode_magnitude(-1)

    def test_cycles_array_vectorized(self):
        values = np.array([-128, -7, 0, 1, 6])
        assert list(self.code.cycles_array(values)) == [64, 4, 0, 1, 3]


class TestPureUnary:
    code = PureUnaryCode()

    def test_magnitude_pulses(self):
        assert self.code.encode_magnitude(4) == (1, 1, 1, 1)

    def test_cycles_equals_magnitude(self):
        assert self.code.cycles_for(-100) == 100

    def test_twice_as_slow_as_twos_unary(self):
        twos = TwosUnaryCode()
        for magnitude in range(1, 64):
            assert (
                self.code.cycles_for_magnitude(magnitude)
                >= twos.cycles_for_magnitude(magnitude)
            )

    def test_cycles_array(self):
        values = np.array([-3, 0, 5])
        assert list(self.code.cycles_array(values)) == [3, 0, 5]


class TestRoundTrip:
    @pytest.mark.parametrize("code_name", ["unary", "2s-unary"])
    def test_encode_decode_all_int8(self, code_name):
        code = {"unary": PureUnaryCode(), "2s-unary": TwosUnaryCode()}[
            code_name
        ]
        for value in range(-128, 128):
            assert code.decode(code.encode(value)) == value

    def test_stream_length_matches_cycles_for(self):
        code = TwosUnaryCode()
        for value in range(-128, 128):
            assert code.encode(value).cycles == code.cycles_for(value)


class TestMagnitudeAfter:
    """Closed-form multi-cycle drain (the burst engine's jump primitive)."""

    def test_twos_unary_matches_pulse_by_pulse(self):
        code = TwosUnaryCode()
        for magnitude in range(0, 130):
            pulses = code.encode_magnitude(magnitude)
            for cycles in range(0, len(pulses) + 2):
                expected = magnitude - sum(pulses[:cycles])
                got = code.magnitude_after(
                    np.array([magnitude]), cycles
                )[0]
                assert got == expected

    def test_pure_unary_matches_pulse_by_pulse(self):
        code = PureUnaryCode()
        for magnitude in (0, 1, 5, 128):
            for cycles in (0, 1, 3, 200):
                assert code.magnitude_after(
                    np.array([magnitude]), cycles
                )[0] == max(magnitude - cycles, 0)

    def test_vectorised_over_arrays(self):
        code = TwosUnaryCode()
        mags = np.array([0, 1, 2, 7, 128])
        assert list(code.magnitude_after(mags, 2)) == [0, 0, 0, 3, 124]

    def test_negative_magnitude_raises(self):
        with pytest.raises(EncodingError):
            TwosUnaryCode().magnitude_after(np.array([-1]), 1)

    def test_negative_cycles_raises(self):
        with pytest.raises(EncodingError):
            TwosUnaryCode().magnitude_after(np.array([5]), -1)
