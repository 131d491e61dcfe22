"""NanGate45-like cell library instance."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SynthesisError
from repro.hw.cells import Cell


@dataclass(frozen=True)
class CellLibrary:
    """A named collection of standard cells plus node-level constants."""

    name: str
    cells: dict[str, Cell]
    #: supply voltage (V) — used by the wire power model.
    vdd: float = 1.1
    #: unit wire capacitance (fF per µm of routed wire).
    wire_cap_ff_per_um: float = 0.20
    #: average wire activity (toggle rate) for routed nets.
    wire_activity: float = 0.12

    def __getitem__(self, name: str) -> Cell:
        try:
            return self.cells[name]
        except KeyError as exc:
            raise SynthesisError(
                f"cell {name!r} not in library {self.name!r}"
            ) from exc

    def __contains__(self, name: str) -> bool:
        return name in self.cells


def _build_nangate45() -> CellLibrary:
    cells = [
        #    name      area    E_fj  leak_nw delay_ps  seq  clk_fj
        Cell("INV", 0.532, 0.60, 1.00, 12.0),
        Cell("BUF", 0.798, 1.00, 1.40, 25.0),
        Cell("NAND2", 0.798, 0.80, 1.30, 18.0),
        Cell("NOR2", 0.798, 0.80, 1.20, 20.0),
        Cell("AND2", 1.064, 1.00, 1.60, 25.0),
        Cell("OR2", 1.064, 1.00, 1.50, 25.0),
        Cell("NAND3", 1.064, 1.00, 1.60, 25.0),
        Cell("NOR3", 1.064, 1.00, 1.50, 28.0),
        Cell("AND3", 1.330, 1.20, 1.90, 30.0),
        Cell("OR3", 1.330, 1.20, 1.80, 30.0),
        Cell("XOR2", 1.596, 1.80, 2.20, 40.0),
        Cell("XNOR2", 1.596, 1.80, 2.20, 40.0),
        Cell("MUX2", 1.862, 1.60, 2.10, 35.0),
        Cell("AOI21", 1.064, 1.00, 1.50, 25.0),
        Cell("OAI21", 1.064, 1.00, 1.50, 25.0),
        Cell("HA", 3.192, 2.80, 3.50, 55.0),
        Cell("FA", 4.256, 4.00, 5.00, 75.0),
        Cell(
            "DFF",
            4.522,
            2.00,
            5.50,
            90.0,
            sequential=True,
            clk_energy_fj=1.40,
        ),
    ]
    return CellLibrary(name="NanGate45", cells={c.name: c for c in cells})


#: The library used throughout the study (45nm CMOS, as in the paper).
NANGATE45 = _build_nangate45()
