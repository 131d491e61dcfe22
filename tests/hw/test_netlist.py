"""Tests for the hierarchical netlist."""

import pytest

from repro.errors import SynthesisError
from repro.hw.library import NANGATE45
from repro.hw.netlist import Netlist


def leaf(name: str, fa: int = 2) -> Netlist:
    block = Netlist(name)
    block.add("FA", fa)
    return block


class TestConstruction:
    def test_add_accumulates(self):
        block = Netlist("m").add("INV", 2).add("INV", 3)
        assert block.cells["INV"] == 5

    def test_negative_count_raises(self):
        with pytest.raises(SynthesisError):
            Netlist("m").add("INV", -1)

    def test_zero_count_ignored(self):
        block = Netlist("m").add("INV", 0)
        assert "INV" not in block.cells

    def test_child_count(self):
        parent = Netlist("p").add_child(leaf("a"), 7)
        assert [(child.name, count) for child, count in parent.children] \
            == [("a", 7)]


class TestAggregation:
    def test_cell_counts_multiply_by_instances(self):
        parent = Netlist("p")
        parent.add("DFF", 1)
        parent.add_child(leaf("a", fa=3), count=4)
        counts = parent.cell_counts()
        assert counts["FA"] == 12
        assert counts["DFF"] == 1
        assert sum(counts.values()) == 13

    def test_nested_hierarchy(self):
        inner = leaf("inner", fa=2)
        mid = Netlist("mid").add_child(inner, 3)
        top = Netlist("top").add_child(mid, 5)
        assert top.cell_counts()["FA"] == 30

    def test_area_is_sum_of_footprints(self):
        block = Netlist("m").add("FA", 10)
        expected = 10 * NANGATE45["FA"].area_um2
        assert block.area_um2(NANGATE45) == pytest.approx(expected)

    def test_max_depth_over_children(self):
        shallow = Netlist("s", depth_ps=100.0)
        deep = Netlist("d", depth_ps=900.0)
        top = Netlist("t", depth_ps=10.0)
        top.add_child(shallow).add_child(deep)
        assert top.max_depth_ps() == 900.0


class TestActivityInheritance:
    def test_children_inherit_parent_activity(self):
        child = Netlist("c").add("INV", 1)
        parent = Netlist("p", activity=0.42)
        parent.add_child(child)
        rows = list(parent.iter_effective())
        assert rows == [("INV", 1, 0.42, 0.10)]

    def test_child_override_wins(self):
        child = Netlist("c", activity=0.9).add("INV", 1)
        parent = Netlist("p", activity=0.1)
        parent.add_child(child)
        (row,) = parent.iter_effective()
        assert row[2] == 0.9

    def test_reg_activity_inherits_separately(self):
        child = Netlist("c").add("DFF", 2)
        parent = Netlist("p", reg_activity=0.33)
        parent.add_child(child)
        (row,) = parent.iter_effective()
        assert row[3] == 0.33

    def test_instance_counts_in_traversal(self):
        child = Netlist("c").add("INV", 2)
        parent = Netlist("p").add_child(child, 5)
        (row,) = parent.iter_effective()
        assert row[1] == 10


class TestConnections:
    def test_connect_records(self):
        block = Netlist("m").connect("a", "b", 16)
        assert block.connections[0].bits == 16

    def test_negative_instance_count_raises(self):
        with pytest.raises(SynthesisError):
            Netlist("m").add_child(leaf("a"), -2)
