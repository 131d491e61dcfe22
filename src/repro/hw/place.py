"""Cluster-level placement.

The P&R model places *module clusters* (one per child instance of the top
netlist — e.g. each PE cell, the adder-tree glue, register banks) rather
than individual gates: at the paper's design sizes (a 16x4 array) this is
the granularity that determines wirelength trends, and it keeps pure-Python
runtimes in milliseconds.

Flow: spring-embedding of the connectivity graph (networkx) -> row-based
legalization onto the die -> greedy pairwise-swap refinement minimising
half-perimeter wirelength (HPWL).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.errors import SynthesisError
from repro.hw.floorplan import Floorplan
from repro.hw.library import CellLibrary
from repro.hw.netlist import Netlist


@dataclass
class Cluster:
    """A placeable block.

    Attributes:
        name: instance name (e.g. "pe_cell#3").
        area_um2: block area.
        x_um / y_um: placed center position.
    """

    name: str
    area_um2: float
    x_um: float = 0.0
    y_um: float = 0.0

    @property
    def side_um(self) -> float:
        return math.sqrt(self.area_um2)


@dataclass(frozen=True)
class PlacementEdge:
    """A weighted 2-pin net bundle between clusters (indices)."""

    src: int
    dst: int
    bits: int


@dataclass
class Placement:
    """A placed design: clusters with positions plus the net bundles."""

    clusters: list[Cluster]
    edges: list[PlacementEdge]
    floorplan: Floorplan

    def wirelength_um(self) -> float:
        """Total HPWL (Manhattan distance x bundle bits)."""
        total = 0.0
        for edge in self.edges:
            a = self.clusters[edge.src]
            b = self.clusters[edge.dst]
            total += (abs(a.x_um - b.x_um) + abs(a.y_um - b.y_um)) * edge.bits
        return total


def extract_clusters(
    netlist: Netlist, library: CellLibrary
) -> tuple[list[Cluster], list[PlacementEdge]]:
    """Expand the top level of a netlist into placeable clusters.

    Child instances become one cluster each ("name#i"); the netlist's own
    leaf cells become a "glue" cluster.  Connection bundles are expanded:
    equal-count endpoints pair by index, otherwise they broadcast.
    """
    clusters: list[Cluster] = []
    index_by_child: dict[str, list[int]] = {}

    for child, count in netlist.children:
        area = child.area_um2(library)
        indices = []
        for instance in range(count):
            suffix = f"#{instance}" if count > 1 else ""
            clusters.append(Cluster(f"{child.name}{suffix}", area))
            indices.append(len(clusters) - 1)
        index_by_child[child.name] = indices

    # The netlist's own leaf cells (glue logic / IO anchor) always form a
    # "TOP" cluster so connections may reference it.
    own_area = sum(
        count * library[cell].area_um2
        for cell, count in netlist.cells.items()
    )
    clusters.append(Cluster("TOP", max(own_area, 1.0)))
    index_by_child["TOP"] = [len(clusters) - 1]

    edges: list[PlacementEdge] = []
    for conn in netlist.connections:
        if conn.src not in index_by_child or conn.dst not in index_by_child:
            raise SynthesisError(
                f"connection {conn.src}->{conn.dst} references unknown child"
            )
        sources = index_by_child[conn.src]
        sinks = index_by_child[conn.dst]
        if len(sources) == len(sinks):
            pairs = zip(sources, sinks)
        else:
            pairs = ((s, d) for s in sources for d in sinks)
        for src, dst in pairs:
            if src != dst:
                edges.append(PlacementEdge(src, dst, conn.bits))
    return clusters, edges


def _initial_positions(
    clusters: list[Cluster],
    edges: list[PlacementEdge],
    seed: int,
) -> np.ndarray:
    graph = nx.Graph()
    graph.add_nodes_from(range(len(clusters)))
    for edge in edges:
        if graph.has_edge(edge.src, edge.dst):
            graph[edge.src][edge.dst]["weight"] += edge.bits
        else:
            graph.add_edge(edge.src, edge.dst, weight=edge.bits)
    layout = nx.spring_layout(graph, seed=seed, weight="weight")
    return np.array([layout[i] for i in range(len(clusters))])


def _legalize_rows(
    clusters: list[Cluster], order: list[int], floorplan: Floorplan
) -> None:
    """Strip-pack clusters into rows following ``order``."""
    x_cursor = 0.0
    y_cursor = 0.0
    row_height = 0.0
    for index in order:
        cluster = clusters[index]
        side = cluster.side_um
        if x_cursor + side > floorplan.die_width_um and x_cursor > 0.0:
            x_cursor = 0.0
            y_cursor += row_height
            row_height = 0.0
        cluster.x_um = min(
            x_cursor + side / 2.0, floorplan.die_width_um
        )
        cluster.y_um = min(
            y_cursor + side / 2.0, floorplan.die_height_um
        )
        x_cursor += side
        row_height = max(row_height, side)


def place_clusters(
    netlist: Netlist,
    library: CellLibrary,
    floorplan: Floorplan,
    seed: int = 1,
    refine_passes: int = 64,
) -> Placement:
    """Produce a legalized, HPWL-refined placement.

    Args:
        netlist: top-level design (children become clusters).
        library: cell library for block areas.
        floorplan: die produced by :func:`make_floorplan`.
        seed: RNG seed for the spring embedding and refinement.
        refine_passes: pairwise-swap improvement sweeps.
    """
    clusters, edges = extract_clusters(netlist, library)
    placement = Placement(clusters, edges, floorplan)
    if len(clusters) == 1:
        clusters[0].x_um = floorplan.die_width_um / 2.0
        clusters[0].y_um = floorplan.die_height_um / 2.0
        return placement

    positions = _initial_positions(clusters, edges, seed)
    # Order clusters by the spring embedding's principal direction so
    # connected blocks land in nearby rows.
    keys = positions[:, 1] * 4.0 + positions[:, 0]
    order = list(np.argsort(keys))
    _legalize_rows(clusters, order, floorplan)

    rng = np.random.default_rng(seed)
    best = placement.wirelength_um()
    count = len(clusters)
    for _ in range(refine_passes):
        improved = False
        for _ in range(count * 2):
            i, j = rng.integers(0, count, size=2)
            if i == j:
                continue
            ci, cj = clusters[int(i)], clusters[int(j)]
            ci.x_um, cj.x_um = cj.x_um, ci.x_um
            ci.y_um, cj.y_um = cj.y_um, ci.y_um
            trial = placement.wirelength_um()
            if trial < best:
                best = trial
                improved = True
            else:
                ci.x_um, cj.x_um = cj.x_um, ci.x_um
                ci.y_um, cj.y_um = cj.y_um, ci.y_um
        if not improved:
            break
    return placement
