"""Tests for the temporal bitstream container."""

import pytest

from repro.errors import EncodingError
from repro.unary.bitstream import TemporalBitstream
from tests.oracles import signed_pulses


class TestConstruction:
    def test_basic(self):
        stream = TemporalBitstream((2, 2, 1))
        assert stream.magnitude == 5
        assert stream.cycles == 3

    def test_invalid_pulse_rejected(self):
        with pytest.raises(EncodingError):
            TemporalBitstream((3,))

    def test_negative_pulse_rejected(self):
        with pytest.raises(EncodingError):
            TemporalBitstream((-1,))


class TestProperties:
    def test_value_applies_sign(self):
        assert TemporalBitstream((2, 1), negative=True).value == -3
        assert TemporalBitstream((2, 1), negative=False).value == 3

    def test_silent_stream(self):
        stream = TemporalBitstream(())
        assert stream.is_silent
        assert stream.value == 0
        assert stream.cycles == 0

    def test_zero_pulses_do_not_count_active(self):
        stream = TemporalBitstream((2, 0, 1))
        assert stream.active_cycles == 2
        assert stream.cycles == 3

    def test_len_and_iter(self):
        stream = TemporalBitstream((2, 1))
        assert len(stream) == 2
        assert list(stream) == [2, 1]


class TestSignedView:
    def test_signed_pulses_negative(self):
        assert signed_pulses(TemporalBitstream((2, 1), True)) == (-2, -1)

    def test_signed_pulses_positive(self):
        assert signed_pulses(TemporalBitstream((2, 1))) == (2, 1)
