"""Tests for the cycle-level temporal encoder."""

import pytest

from repro.errors import SimulationError
from repro.unary.encoder import TemporalEncoder
from repro.unary.encoding import PureUnaryCode


class TestTemporalEncoder:
    def test_positive_stream(self):
        enc = TemporalEncoder()
        enc.load(5)
        assert enc.drain() == [2, 2, 1]

    def test_negative_stream(self):
        enc = TemporalEncoder()
        enc.load(-4)
        assert enc.drain() == [-2, -2]

    def test_zero_never_busy(self):
        enc = TemporalEncoder()
        enc.load(0)
        assert not enc.busy
        assert enc.tick() == 0

    def test_tick_before_load_raises(self):
        with pytest.raises(SimulationError):
            TemporalEncoder().tick()

    def test_idle_ticks_emit_zero(self):
        enc = TemporalEncoder()
        enc.load(2)
        enc.drain()
        assert enc.tick() == 0

    def test_reload_restarts(self):
        enc = TemporalEncoder()
        enc.load(2)
        enc.drain()
        enc.load(3)
        assert enc.drain() == [2, 1]

    def test_remaining_cycles_counts_down(self):
        enc = TemporalEncoder()
        enc.load(5)
        seen = []
        while enc.busy:
            seen.append(enc.remaining_cycles)
            enc.tick()
        assert seen == [3, 2, 1]

    def test_pure_unary_mode(self):
        enc = TemporalEncoder(PureUnaryCode())
        enc.load(-3)
        assert enc.drain() == [-1, -1, -1]

    def test_sum_of_pulses_equals_value(self):
        enc = TemporalEncoder()
        for value in range(-128, 128, 7):
            enc.load(value)
            assert sum(enc.drain()) == value
