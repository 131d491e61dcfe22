"""Hierarchical netlist representation.

A :class:`Netlist` is a named module holding a multiset of leaf cells, child
module instances (with replication counts, so a 1024-lane PE cell does not
materialise 1024 Python objects), activity annotations for the power model,
a combinational-depth annotation for the timing model, and coarse
connectivity used by the P&R flow.

This is deliberately *not* a full gate graph: every experiment in the paper
needs Σ-area, activity-weighted power, worst-path timing and block-level
placement — all of which this aggregate form supports at speed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from repro.errors import SynthesisError
from repro.hw.library import CellLibrary


@dataclass(frozen=True)
class Connection:
    """A coarse inter-block net bundle used by placement.

    ``src`` and ``dst`` name child modules of the owning netlist ("TOP"
    refers to the owner's own glue logic / IO).  When both endpoints are
    replicated the same number of times the bundle is index-paired;
    otherwise every source instance connects to every destination instance
    (broadcast), which is exactly the CSC feature-data broadcast pattern.

    Attributes:
        src: source child name (or "TOP").
        dst: destination child name (or "TOP").
        bits: bus width of the bundle.
    """

    src: str
    dst: str
    bits: int


class Netlist:
    """A hardware module: leaf cells + child instances + annotations."""

    def __init__(
        self,
        name: str,
        activity: float | None = None,
        reg_activity: float | None = None,
        depth_ps: float = 0.0,
    ) -> None:
        """Args:
        name: module name (unique among siblings).
        activity: toggle rate of combinational cells in this module; if
            None the parent's effective activity is inherited.
        reg_activity: data-toggle rate of flip-flop outputs here; if None
            it is inherited.
        depth_ps: combinational delay through this module (ps), used as a
            register-to-register path segment by the timing model.
        """
        self.name = name
        self.activity = activity
        self.reg_activity = reg_activity
        self.depth_ps = depth_ps
        self.cells: Counter[str] = Counter()
        self.children: list[tuple[Netlist, int]] = []
        self.connections: list[Connection] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, cell_name: str, count: int = 1) -> "Netlist":
        """Add ``count`` leaf cells of a type; returns self for chaining."""
        if count < 0:
            raise SynthesisError(f"negative cell count for {cell_name}")
        if count:
            self.cells[cell_name] += count
        return self

    def add_child(self, child: "Netlist", count: int = 1) -> "Netlist":
        """Instantiate ``count`` copies of a child module."""
        if count < 0:
            raise SynthesisError(f"negative instance count for {child.name}")
        if count:
            self.children.append((child, count))
        return self

    def connect(self, src: str, dst: str, bits: int) -> "Netlist":
        """Record a coarse net bundle between two children (see
        :class:`Connection`)."""
        self.connections.append(Connection(src, dst, bits))
        return self

    # ------------------------------------------------------------------
    # aggregate queries
    # ------------------------------------------------------------------
    def cell_counts(self) -> Counter:
        """Flattened cell multiset (children multiplied by instance
        counts)."""
        total = Counter(self.cells)
        for child, count in self.children:
            child_counts = child.cell_counts()
            for cell, n in child_counts.items():
                total[cell] += n * count
        return total

    def area_um2(self, library: CellLibrary) -> float:
        """Post-synthesis standard-cell area (Σ cell footprints)."""
        return sum(
            count * library[cell].area_um2
            for cell, count in self.cell_counts().items()
        )

    def max_depth_ps(self) -> float:
        """Worst combinational path segment anywhere in the hierarchy."""
        depth = self.depth_ps
        for child, _count in self.children:
            depth = max(depth, child.max_depth_ps())
        return depth

    def iter_effective(
        self,
        default_activity: float = 0.15,
        default_reg_activity: float = 0.10,
    ) -> Iterator[tuple[str, int, float, float]]:
        """Yield (cell_name, count, activity, reg_activity) over the whole
        hierarchy with inherited annotations resolved — the power model's
        traversal."""
        activity = (
            self.activity if self.activity is not None else default_activity
        )
        reg_activity = (
            self.reg_activity
            if self.reg_activity is not None
            else default_reg_activity
        )
        for cell, count in self.cells.items():
            yield cell, count, activity, reg_activity
        for child, count in self.children:
            for cell, n, act, reg_act in child.iter_effective(
                activity, reg_activity
            ):
                yield cell, n * count, act, reg_act

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Netlist({self.name!r}, cells={sum(self.cells.values())}, "
            f"children={len(self.children)})"
        )
