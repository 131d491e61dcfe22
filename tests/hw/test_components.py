"""Tests for datapath component generators."""

import pytest

from repro.errors import SynthesisError
from repro.hw import components as comp
from repro.hw.library import NANGATE45


class TestAdders:
    def test_rca_cell_counts(self):
        adder = comp.ripple_carry_adder(8)
        assert adder.cells["FA"] == 7
        assert adder.cells["HA"] == 1

    def test_rca_depth_is_carry_chain(self):
        adder = comp.ripple_carry_adder(16)
        assert adder.depth_ps > comp.ripple_carry_adder(4).depth_ps

    def test_width_must_be_positive(self):
        with pytest.raises(SynthesisError):
            comp.ripple_carry_adder(0)


class TestCounters:
    def test_decrementer_has_invert(self):
        block = comp.decrementer(5)
        assert block.cells["HA"] == 5
        assert block.cells["INV"] == 1


class TestDetectors:
    def test_nonzero_or_tree(self):
        assert comp.nonzero_detector(8).cells["OR2"] == 7

    def test_nonzero_single_bit(self):
        assert comp.nonzero_detector(1).cells["OR2"] == 1


class TestBanks:
    def test_register_bank(self):
        assert comp.register_bank(20).cells["DFF"] == 20

    def test_register_bank_activity_annotation(self):
        bank = comp.register_bank(4, reg_activity=0.5)
        (row,) = bank.iter_effective()
        assert row[3] == 0.5

    def test_mux_and_xor_banks(self):
        assert comp.mux2_bank(9).cells["MUX2"] == 9
        assert comp.xor_bank(9).cells["XOR2"] == 9
        assert comp.and_bank(9).cells["AND2"] == 9


class TestBroadcast:
    def test_buffer_count_scales_with_fanout(self):
        small = comp.broadcast_buffers(8, 4).cells["BUF"]
        large = comp.broadcast_buffers(8, 16).cells["BUF"]
        assert large > small

    def test_invalid_fanout(self):
        with pytest.raises(SynthesisError):
            comp.broadcast_buffers(8, 0)


class TestControl:
    def test_handshake_has_state_flops(self):
        block = comp.handshake_controller()
        assert block.cells["DFF"] >= 4

    def test_clock_gate_small(self):
        block = comp.clock_gate()
        assert block.num_cells() <= 4


class TestTwosUnaryEncoder:
    def test_encoder_contains_decrementer_and_detector(self):
        encoder = comp.twos_unary_encoder(8)
        counts = encoder.cell_counts()
        assert counts["HA"] == 7  # magnitude bits
        assert counts["OR2"] >= 6

    def test_encoder_scales_with_width(self):
        int8 = comp.twos_unary_encoder(8).area_um2(NANGATE45)
        int4 = comp.twos_unary_encoder(4).area_um2(NANGATE45)
        assert int8 > int4

    def test_encoder_much_smaller_than_a_multiplier(self):
        from repro.hw.wallace import wallace_multiplier

        encoder = comp.twos_unary_encoder(8).area_um2(NANGATE45)
        multiplier = wallace_multiplier(8).area_um2(NANGATE45)
        assert encoder < multiplier / 5
