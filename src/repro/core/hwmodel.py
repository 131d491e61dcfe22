"""Netlist builders for the Tempus (tub) datapath.

Mirrors :mod:`repro.nvdla.hwmodel` at the same three granularities:

* :func:`tub_pe_cell_netlist` — one tub PE cell: per-lane weight registers
  (doubling as the 2s-unary down-counters), temporal-encoder pulse logic,
  operand gating (0 / a / a<<1 select with sign conditioning), the shared
  contribution adder tree and the cell accumulator.  No array multiplier
  anywhere — the source of the area/power advantage.
* :func:`tub_array_netlist` — k cells + feature broadcast (Fig. 4).
* :func:`pcu_unit_netlist` — the full PCU with feature-hold registers,
  burst control, output registers and the added handshake (Fig. 5 /
  Table III).

Activity notes: during a burst the count registers decrement and the cell
accumulator updates *every cycle*, so their toggle rates are high — this is
why the PCU's power advantage is structurally smaller than its area
advantage, the paper's Fig. 5 observation.
"""

from __future__ import annotations

from repro.hw.adder_tree import adder_tree
from repro.hw.components import (
    and_bank,
    broadcast_buffers,
    clock_gate,
    handshake_controller,
    mux2_bank,
    nonzero_detector,
    register_bank,
    ripple_carry_adder,
    twos_unary_encoder,
    xor_bank,
)
from repro.hw.netlist import Netlist
from repro.nvdla.hwmodel import accumulator_width
from repro.utils.intrange import IntSpec, int_spec

# Toggle-rate calibration for the tub datapath.
COUNT_REG_ACTIVITY = 0.35  # weight registers decrement during the burst
ENCODER_ACTIVITY = 0.20
GATE_ACTIVITY = 0.08  # operand gates switch only on pulse boundaries
TREE_ACTIVITY = 0.08  # pulse tree sees sparse, short operands
ACC_ADDER_ACTIVITY = 0.30
ACC_REG_ACTIVITY = 0.40  # accumulator updates every burst cycle
FEATURE_REG_ACTIVITY = 0.05  # feature atom held stable across the burst
OUTPUT_REG_ACTIVITY = 0.05  # psums latched once per burst


def contribution_width(precision: IntSpec) -> int:
    """Per-lane, per-cycle contribution width: +/- 2 * activation needs
    precision.width + 2 bits."""
    return precision.width + 2


def lane_gate_netlist(precision: IntSpec, name: str = "lane_gate") -> Netlist:
    """Operand gating of one tub lane: select {0, a, a<<1} (the shift is
    wiring) and apply the stream sign."""
    width = contribution_width(precision)
    gate = Netlist(name, activity=GATE_ACTIVITY)
    gate.add_child(mux2_bank(width, name="shift_sel"))
    gate.add_child(and_bank(width, name="pulse_en"))
    gate.add_child(xor_bank(width, name="sign_cond"))
    gate.depth_ps = sum(child.depth_ps for child, _ in gate.children)
    return gate


def tub_pe_cell_netlist(
    precision: "int | str | IntSpec", n: int, name: str = "tub_pe_cell"
) -> Netlist:
    """One tub PE cell (n lanes + shared tree + accumulator)."""
    spec = int_spec(precision)
    width = spec.width
    acc_bits = accumulator_width(spec, n)
    cell = Netlist(name)
    # Weight registers double as the 2s-unary down-counters.
    cell.add_child(
        register_bank(n * width, "count_regs", COUNT_REG_ACTIVITY)
    )
    encoder = twos_unary_encoder(width, name="tu_enc")
    encoder.activity = ENCODER_ACTIVITY
    cell.add_child(encoder, n)
    cell.add_child(lane_gate_netlist(spec), n)
    cell.add_child(
        adder_tree(
            n,
            contribution_width(spec),
            name="pulse_tree",
            activity=TREE_ACTIVITY,
        )
    )
    accumulator = Netlist("cell_acc", activity=ACC_ADDER_ACTIVITY)
    accumulator.add_child(ripple_carry_adder(acc_bits, name="acc_add"))
    accumulator.add_child(
        register_bank(acc_bits, "acc_reg", ACC_REG_ACTIVITY)
    )
    cell.add_child(accumulator)
    return cell


def tub_array_netlist(
    k: int,
    n: int,
    precision: "int | str | IntSpec",
    name: str = "tub_array",
) -> Netlist:
    """k x n tub PE array: k cells plus the feature broadcast fabric."""
    spec = int_spec(precision)
    array = Netlist(name)
    cell = tub_pe_cell_netlist(spec, n, name="pe_cell")
    array.add_child(cell, k)
    array.add_child(broadcast_buffers(n * spec.width, k, name="bcast"))
    array.connect("bcast", "pe_cell", n * spec.width)
    array.connect("pe_cell", "TOP", accumulator_width(spec, n))
    return array


def burst_controller_netlist(
    precision: IntSpec, name: str = "burst_ctrl"
) -> Netlist:
    """PCU burst sequencing: a cycle counter as wide as the worst-case
    burst plus completion detection."""
    counter_bits = max(1, precision.worst_case_tub_cycles.bit_length())
    block = Netlist(name, activity=0.30, reg_activity=0.35)
    block.add_child(register_bank(counter_bits, "count"))
    block.add_child(ripple_carry_adder(counter_bits, name="step"))
    block.add_child(nonzero_detector(counter_bits, name="done"))
    return block


def pcu_unit_netlist(
    k: int,
    n: int,
    precision: "int | str | IntSpec",
    name: str = "pcu_unit",
) -> Netlist:
    """The complete PCU: array + feature-hold registers + burst control +
    output registers + the added multi-cycle handshake."""
    spec = int_spec(precision)
    acc_bits = accumulator_width(spec, n)
    unit = Netlist(name)
    cell = tub_pe_cell_netlist(spec, n, name="pe_cell")
    unit.add_child(cell, k)
    unit.add_child(
        register_bank(n * spec.width, "feature_regs", FEATURE_REG_ACTIVITY)
    )
    unit.add_child(broadcast_buffers(n * spec.width, k, name="bcast"))
    unit.add_child(
        register_bank(k * acc_bits, "output_regs", OUTPUT_REG_ACTIVITY)
    )
    unit.add_child(burst_controller_netlist(spec))
    unit.add_child(handshake_controller("handshake"))
    unit.add_child(clock_gate("cell_cg"), k)
    unit.connect("feature_regs", "bcast", n * spec.width)
    unit.connect("bcast", "pe_cell", n * spec.width)
    unit.connect("pe_cell", "output_regs", acc_bits)
    unit.connect("output_regs", "TOP", k * acc_bits)
    unit.connect("burst_ctrl", "pe_cell", 2)
    unit.connect("handshake", "burst_ctrl", 4)
    return unit
