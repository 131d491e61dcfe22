"""Design-space autotuner: Pareto search over backend x precision x
array geometry (``python -m repro bench pareto``).

Given a one-net :class:`~repro.tune.spec.SweepSpec` grid (the
registered ``pareto`` spec by default) and an optional SLO (a
cycles-per-image and/or pJ-per-image budget, Python API only), the
tuner evaluates every assignment through the generic
:class:`~repro.tune.harness.SweepHarness` — simulated cycles from the
runtime, per-image energy from the deployed-array power model
(:mod:`repro.profiling.energy`), silicon area from
:mod:`repro.hw.synthesis` — prunes dominated points, and writes the
three-objective Pareto frontier (cycles vs pJ/image vs mm^2) to
``results/BENCH_pareto.json``.

Area accounting matches the energy model's deployment story: the
silicon is provisioned at :data:`~repro.profiling.energy
.DEPLOYED_WIDTH` (INT8) regardless of the profile served, and a mixed
backend profile deploys every array it names (binary + tub), paying
for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from repro.core.hwmodel import tub_array_netlist
from repro.errors import DataflowError
from repro.hw.synthesis import SynthesisResult, synthesize
from repro.nvdla.hwmodel import binary_array_netlist
from repro.profiling.energy import DEFAULT_CLOCK_MHZ, DEPLOYED_WIDTH
from repro.tune.harness import SweepHarness, single, \
    write_benchmark_artifact
from repro.tune.spec import PARETO_SWEEP, SweepSpec, describe_geometry
from repro.utils.intrange import int_spec

#: The tuner's objectives, all minimized.
OBJECTIVES = ("cycles_per_image", "pj_per_image", "area_mm2")


@dataclass(frozen=True)
class Slo:
    """A serving-level objective: per-image budgets a design must meet.

    ``None`` budgets are unconstrained; an all-``None`` SLO admits
    every design (the tuner then reports the unconstrained frontier).
    """

    max_cycles_per_image: "float | None" = None
    max_pj_per_image: "float | None" = None

    def __post_init__(self) -> None:
        for name in ("max_cycles_per_image", "max_pj_per_image"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise DataflowError(f"{name} must be positive")

    @property
    def constrained(self) -> bool:
        return (
            self.max_cycles_per_image is not None
            or self.max_pj_per_image is not None
        )

    def admits(
        self, cycles_per_image: float, pj_per_image: float
    ) -> bool:
        if (
            self.max_cycles_per_image is not None
            and cycles_per_image > self.max_cycles_per_image
        ):
            return False
        if (
            self.max_pj_per_image is not None
            and pj_per_image > self.max_pj_per_image
        ):
            return False
        return True

    def as_dict(self) -> dict:
        return {
            "max_cycles_per_image": self.max_cycles_per_image,
            "max_pj_per_image": self.max_pj_per_image,
        }


@lru_cache(maxsize=64)
def array_report(
    array: str,
    k: int,
    n: int,
    width: int = DEPLOYED_WIDTH,
    clock_mhz: float = DEFAULT_CLOCK_MHZ,
) -> SynthesisResult:
    """Synthesis report of one deployed k x n array (cached —
    synthesis is deterministic)."""
    precision = int_spec(width)
    if array == "binary":
        netlist = binary_array_netlist(k, n, precision)
    elif array == "tub":
        netlist = tub_array_netlist(k, n, precision)
    else:
        raise DataflowError(
            f"unknown array {array!r} (expected 'binary' or 'tub')"
        )
    return synthesize(netlist, clock_mhz=clock_mhz)


def dominates(a: dict, b: dict) -> bool:
    """True iff ``a`` is no worse than ``b`` on every objective and
    strictly better on at least one."""
    return all(
        a[objective] <= b[objective] for objective in OBJECTIVES
    ) and any(a[objective] < b[objective] for objective in OBJECTIVES)


def pareto_frontier(points: "list[dict]") -> "list[dict]":
    """Non-dominated points, deduplicated by objective vector and
    sorted fastest-first.

    Deduplication matters because distinct assignments can share an
    objective vector exactly (binary cycle cost is
    precision-independent, so binary int8/int4 points tie on all three
    axes); the frontier keeps the first spelling of each vector.
    """
    frontier = []
    seen = set()
    for point in points:
        if any(
            dominates(other, point)
            for other in points
            if other is not point
        ):
            continue
        vector = tuple(point[objective] for objective in OBJECTIVES)
        if vector in seen:
            continue
        seen.add(vector)
        frontier.append(point)
    return sorted(
        frontier,
        key=lambda point: tuple(
            point[objective] for objective in OBJECTIVES
        ),
    )


def evaluate_point(harness: SweepHarness, point, slo: Slo) -> dict:
    """Score one design-space assignment on the three objectives."""
    runner = harness.runner(
        point.backend, point.precision, point.geometry
    )
    result = runner.run(point.net, harness.spec.batch)
    record = harness.point_record(runner, point, result)
    energy = record["energy"]
    arrays = tuple(sorted(energy["array_power_mw"]))
    k, n = point.geometry
    cycles_per_image = float(result.cycles_per_image)
    pj_per_image = float(energy["pj_per_image"])
    reports = {array: array_report(array, k, n) for array in arrays}
    return {
        "net": point.net,
        "backend": point.backend,
        "precision": point.precision,
        "geometry": {"k": k, "n": n},
        "label": (
            f"{point.backend}/{point.precision}/"
            f"{describe_geometry(point.geometry)}"
        ),
        "cycles": int(result.conv_cycles),
        "cycles_per_image": cycles_per_image,
        "pj_per_image": pj_per_image,
        "area_mm2": float(
            sum(report.area_mm2 for report in reports.values())
        ),
        "arrays": list(arrays),
        "array_power_mw": energy["array_power_mw"],
        "meets_timing": bool(
            all(report.meets_timing for report in reports.values())
        ),
        "meets_slo": bool(
            slo.admits(cycles_per_image, pj_per_image)
        ),
    }


def run_pareto_tune(
    spec: SweepSpec = PARETO_SWEEP,
    slo: "Slo | None" = None,
    out_dir: "str | Path | None" = "results",
) -> dict:
    """Search a backend x precision x geometry grid for one net and
    emit the Pareto frontier (``results/BENCH_pareto.json``).

    Every grid assignment is evaluated through the generic sweep
    harness (simulated cycles + deployed-array energy), priced in
    silicon area via :mod:`repro.hw.synthesis`, filtered against the
    SLO, and dominated designs are pruned.  An SLO no grid point can
    meet raises :class:`DataflowError` naming the tightest achievable
    budgets.

    Args:
        spec: the grid — one net, the backend names / mixed profiles,
            precision profiles and geometries to consider, the images
            per evaluation run (``batch``) and the preset.
        slo: per-image budgets (None = unconstrained frontier).
        out_dir: where BENCH_pareto.json is written (None = don't).

    Returns:
        the record written to the artifact.
    """
    net = single(spec, "nets")
    slo = slo if slo is not None else Slo()
    harness = SweepHarness(spec)

    points = [
        evaluate_point(harness, point, slo) for point in spec.points()
    ]
    feasible = [point for point in points if point["meets_slo"]]
    if not feasible:
        best_cycles = min(
            point["cycles_per_image"] for point in points
        )
        best_pj = min(point["pj_per_image"] for point in points)
        raise DataflowError(
            f"no design meets the SLO {slo.as_dict()}; tightest "
            f"achievable: cycles_per_image {best_cycles:.1f}, "
            f"pj_per_image {best_pj:.1f}"
        )
    frontier = pareto_frontier(feasible)

    payload = {
        "benchmark": "pareto_tune",
        "net": net,
        **harness.common_head(),
        "batch": spec.batch,
        "slo": slo.as_dict(),
        "axes": spec.axes(),
        "deployed_precision": int_spec(DEPLOYED_WIDTH).name,
        "clock_mhz": DEFAULT_CLOCK_MHZ,
        "objectives": list(OBJECTIVES),
        "explored": len(points),
        "feasible": len(feasible),
        "points": points,
        "frontier": frontier,
    }
    return write_benchmark_artifact(
        payload, "BENCH_pareto.json", out_dir
    )


def render_pareto_tune(payload: dict) -> str:
    """Human-readable summary of an autotuner payload."""
    from repro.utils.tables import Column, render_columns, yes_no

    columns = [
        Column("backend", "backend"),
        Column("precision", "precision"),
        Column(
            "geometry",
            lambda row: (
                f"{row['geometry']['k']}x{row['geometry']['n']}"
            ),
        ),
        Column("cycles/image", "cycles_per_image", format=",.1f"),
        Column("pJ/image", "pj_per_image", format=",.0f"),
        Column("mm^2", "area_mm2", format=".4f"),
        Column("arrays", lambda row: "+".join(row["arrays"])),
        Column(
            "timing", lambda row: yes_no(row["meets_timing"])
        ),
    ]
    slo = payload["slo"]
    budgets = ", ".join(
        f"{name}<={value:g}"
        for name, value in slo.items()
        if value is not None
    )
    title = (
        f"design-space Pareto frontier for {payload['net']} "
        f"({payload['explored']} assignments explored, "
        f"{payload['feasible']} feasible, "
        f"{len(payload['frontier'])} on frontier; "
        f"SLO: {budgets or 'unconstrained'})"
    )
    return render_columns(payload["frontier"], columns, title=title)
