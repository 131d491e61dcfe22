"""Structural generators for common datapath blocks.

Each function returns a :class:`~repro.hw.netlist.Netlist` whose cell counts
match what a synthesis tool would elaborate the block to (textbook
structures: ripple-carry adders, carry-save trees, DFF banks), with a
combinational-depth annotation for the timing model.
"""

from __future__ import annotations

from repro.errors import SynthesisError
from repro.hw.library import NANGATE45
from repro.hw.netlist import Netlist

_FA_DELAY = NANGATE45["FA"].delay_ps
_HA_DELAY = NANGATE45["HA"].delay_ps
_AND_DELAY = NANGATE45["AND2"].delay_ps
_OR_DELAY = NANGATE45["OR2"].delay_ps
_XOR_DELAY = NANGATE45["XOR2"].delay_ps
_MUX_DELAY = NANGATE45["MUX2"].delay_ps


def _require_positive(value: int, what: str) -> int:
    if value <= 0:
        raise SynthesisError(f"{what} must be positive, got {value}")
    return int(value)


def register_bank(
    width: int, name: str = "regs", reg_activity: float | None = None
) -> Netlist:
    """``width`` flip-flops."""
    width = _require_positive(width, "register width")
    bank = Netlist(name, reg_activity=reg_activity)
    bank.add("DFF", width)
    return bank


def ripple_carry_adder(width: int, name: str = "rca") -> Netlist:
    """Classic RCA: one HA plus ``width - 1`` FAs; depth is the carry
    chain."""
    width = _require_positive(width, "adder width")
    adder = Netlist(name, depth_ps=_HA_DELAY + (width - 1) * _FA_DELAY)
    adder.add("HA", 1)
    adder.add("FA", width - 1)
    return adder


def decrementer(width: int, name: str = "dec") -> Netlist:
    """Half-adder chain with inverted borrows (-1 / -2 step logic)."""
    width = _require_positive(width, "decrementer width")
    block = Netlist(name, depth_ps=width * _HA_DELAY + _XOR_DELAY)
    block.add("HA", width)
    block.add("INV", 1)
    return block


def nonzero_detector(width: int, name: str = "nz") -> Netlist:
    """OR-reduction tree flagging a non-zero word (the tub lane's "still
    busy" signal)."""
    width = _require_positive(width, "detector width")
    levels = max(1, (width - 1).bit_length())
    block = Netlist(name, depth_ps=levels * _OR_DELAY)
    block.add("OR2", max(width - 1, 1))
    return block


def mux2_bank(width: int, name: str = "mux") -> Netlist:
    """``width`` 2:1 muxes."""
    width = _require_positive(width, "mux width")
    block = Netlist(name, depth_ps=_MUX_DELAY)
    block.add("MUX2", width)
    return block


def and_bank(width: int, name: str = "gate") -> Netlist:
    """``width`` AND gates (operand gating)."""
    width = _require_positive(width, "gate width")
    block = Netlist(name, depth_ps=_AND_DELAY)
    block.add("AND2", width)
    return block


def xor_bank(width: int, name: str = "xor") -> Netlist:
    """``width`` XOR gates (sign conditioning)."""
    width = _require_positive(width, "xor width")
    block = Netlist(name, depth_ps=_XOR_DELAY)
    block.add("XOR2", width)
    return block


def broadcast_buffers(bits: int, fanout: int, name: str = "bcast") -> Netlist:
    """Buffer tree distributing a ``bits``-wide bus to ``fanout`` sinks
    (the CSC -> PE-cell feature broadcast).  One buffer per 4 sinks per
    bit."""
    bits = _require_positive(bits, "broadcast bits")
    fanout = _require_positive(fanout, "broadcast fanout")
    stages = max(1, -(-fanout // 4))
    block = Netlist(name, depth_ps=NANGATE45["BUF"].delay_ps * 2)
    block.add("BUF", bits * stages)
    return block


def handshake_controller(name: str = "handshake") -> Netlist:
    """Small valid/ready FSM: a few state flops plus decode logic — the
    "additional handshaking logic" Tempus Core adds for multi-cycle
    bursts."""
    block = Netlist(name, activity=0.10, reg_activity=0.20)
    block.add("DFF", 6)
    block.add("AND2", 8)
    block.add("OR2", 6)
    block.add("INV", 6)
    block.add("NAND2", 6)
    block.depth_ps = 3 * _AND_DELAY
    return block


def clock_gate(name: str = "cg") -> Netlist:
    """Integrated clock-gating cell equivalent (latch + AND), one per PE
    cell for the silent-PE power gating feature."""
    block = Netlist(name, activity=0.10, reg_activity=0.05)
    block.add("DFF", 1)
    block.add("AND2", 1)
    return block


def twos_unary_encoder(width: int, name: str = "tu_enc") -> Netlist:
    """One 2s-unary encoder lane.

    The weight register itself is the working down-counter (counted
    separately by the PE-cell builder); the encoder contributes the
    decrement-by-two logic, the "remaining != 0" detector and the pulse-type
    select (emit 2 / emit 1 / idle).
    """
    width = _require_positive(width, "encoder width")
    block = Netlist(name, activity=0.15)
    magnitude_bits = max(width - 1, 1)
    dec = decrementer(magnitude_bits, name="dec2")
    block.add_child(dec)
    block.add_child(nonzero_detector(magnitude_bits, name="busy"))
    # pulse select: one-vs-two decision plus enable
    block.add("AND2", 2)
    block.add("INV", 1)
    block.add("MUX2", 1)
    block.depth_ps = dec.depth_ps + _MUX_DELAY
    return block
