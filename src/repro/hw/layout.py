"""Layout density maps — the textual stand-in for the paper's Fig. 6.

The paper shows Innovus layout plots for the CMAC and PCU at identical
floorplan sizes; the visual takeaway is the PCU's much lower cell density.
We reproduce that as an occupancy grid rendered with density characters;
the ``fig6`` experiment records the grids in ``BENCH_paper.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hw.floorplan import Floorplan
from repro.hw.place import Placement

_DENSITY_RAMP = " .:-=+*#%@"


@dataclass
class LayoutGrid:
    """Occupancy fractions over a rows x cols die grid."""

    occupancy: np.ndarray
    floorplan: Floorplan

    @classmethod
    def from_placement(
        cls, placement: Placement, resolution: int = 32
    ) -> "LayoutGrid":
        """Rasterise placed clusters onto a square grid."""
        plan = placement.floorplan
        grid = np.zeros((resolution, resolution), dtype=np.float64)
        cell_w = plan.die_width_um / resolution
        cell_h = plan.die_height_um / resolution
        tile_area = cell_w * cell_h
        for cluster in placement.clusters:
            half = cluster.side_um / 2.0
            x0 = max(cluster.x_um - half, 0.0)
            x1 = min(cluster.x_um + half, plan.die_width_um)
            y0 = max(cluster.y_um - half, 0.0)
            y1 = min(cluster.y_um + half, plan.die_height_um)
            col0 = int(x0 / cell_w)
            col1 = min(int(np.ceil(x1 / cell_w)), resolution)
            row0 = int(y0 / cell_h)
            row1 = min(int(np.ceil(y1 / cell_h)), resolution)
            for row in range(row0, max(row1, row0 + 1)):
                for col in range(col0, max(col1, col0 + 1)):
                    tx0 = max(x0, col * cell_w)
                    tx1 = min(x1, (col + 1) * cell_w)
                    ty0 = max(y0, row * cell_h)
                    ty1 = min(y1, (row + 1) * cell_h)
                    overlap = max(tx1 - tx0, 0.0) * max(ty1 - ty0, 0.0)
                    if row < resolution and col < resolution:
                        grid[row, col] += overlap / tile_area
        return cls(occupancy=np.clip(grid, 0.0, 2.0), floorplan=plan)

    def utilization(self) -> float:
        """Mean occupancy over the die (the Fig. 6 headline number)."""
        capped = np.clip(self.occupancy, 0.0, 1.0)
        return float(capped.mean())

    def render(self, title: str | None = None) -> str:
        """ASCII density plot (darker character = denser tile)."""
        lines = []
        if title:
            lines.append(title)
        top = "+" + "-" * self.occupancy.shape[1] + "+"
        lines.append(top)
        for row in self.occupancy[::-1]:  # origin at bottom-left
            chars = []
            for value in row:
                index = min(
                    int(np.clip(value, 0.0, 1.0) * (len(_DENSITY_RAMP) - 1)),
                    len(_DENSITY_RAMP) - 1,
                )
                chars.append(_DENSITY_RAMP[index])
            lines.append("|" + "".join(chars) + "|")
        lines.append(top)
        lines.append(f"mean utilization: {self.utilization():.1%}")
        return "\n".join(lines)
