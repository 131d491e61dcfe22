"""The paper's evaluation: one driver per table/figure, all run by
``python -m repro bench paper``.

Each driver takes the ``paper`` :class:`~repro.tune.spec.SweepSpec`
and returns an :class:`ExperimentResult` carrying the measured rows,
paper-vs-measured comparisons, notes, pre-rendered text and the figure
series behind the plots.  :func:`run_paper_benchmark` runs every
driver in :data:`EXPERIMENTS` order and writes one record each to
``results/BENCH_paper.json``; ``python -m repro check-results`` holds
each record's shape claims (:mod:`repro.eval.results_schema`).  No
driver reads a host clock, so the artifact is a function of the spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.core.hwmodel import (
    pcu_unit_netlist,
    tub_array_netlist,
    tub_pe_cell_netlist,
)
from repro.core.latency import worst_case_cycles
from repro.core.tempus_core import TempusCore
from repro.core.tub_multiplier import tub_multiply
from repro.eval import paper
from repro.eval.report import Comparison, comparison_table
from repro.eval.throughput import iso_area_improvement, project_improvement
from repro.gemm import BinaryGemm, TubGemm, TuGemm
from repro.hw.pnr import place_and_route
from repro.hw.synthesis import synthesize
from repro.models.accuracy import (
    SmallCnn,
    make_synthetic_dataset,
    quantization_sweep,
)
from repro.models.weights import load_quantized_model
from repro.models.zoo import TABLE1_LABELS
from repro.nvdla.config import CoreConfig
from repro.nvdla.conv_core import ConvolutionCore
from repro.nvdla.hwmodel import (
    binary_array_netlist,
    binary_pe_cell_netlist,
    cmac_unit_netlist,
)
from repro.profiling.energy import workload_energy
from repro.profiling.magnitude import profile_model_magnitudes
from repro.profiling.sparsity import profile_model_sparsity
from repro.tune.harness import write_benchmark_artifact
from repro.tune.spec import PAPER_SWEEP, SweepSpec
from repro.unary.encoding import PureUnaryCode, TwosUnaryCode
from repro.utils.intrange import INT4, INT8, int_spec
from repro.utils.rng import make_rng
from repro.utils.tables import ascii_bar_chart, format_table


def _plain(value):
    """JSON-ready copy: tuples become lists, numpy scalars Python
    numbers."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


@dataclass(frozen=True)
class ExperimentResult:
    """Output of one experiment driver.

    Attributes:
        experiment_id: registry key ("table2", "fig7", ...).
        title: headline (matches the paper's table/figure caption).
        headers / rows: the measured table.
        comparisons: paper-vs-measured metric pairs.
        notes: free-form observations (fidelity caveats, trends).
        extra_text: pre-rendered blocks (traces, bar charts, layouts).
        series: figure series that are not the rows themselves, by
            name: ``{"headers": [...], "rows": [...]}``.
        grid: the axes the rows span, for drivers whose row count
            depends on the preset (the claim checks count rows
            against it).
    """

    experiment_id: str
    title: str
    headers: tuple[str, ...]
    rows: tuple[tuple, ...]
    comparisons: tuple[Comparison, ...] = ()
    notes: tuple[str, ...] = ()
    extra_text: str = ""
    series: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        """The experiment's ``BENCH_paper.json`` record."""
        return _plain(
            {
                "id": self.experiment_id,
                "title": self.title,
                "headers": self.headers,
                "rows": self.rows,
                "comparisons": [
                    {
                        "metric": comparison.metric,
                        "paper": comparison.paper,
                        "measured": comparison.measured,
                        "unit": comparison.unit,
                        "ratio": comparison.ratio,
                    }
                    for comparison in self.comparisons
                ],
                "notes": self.notes,
                "extra_text": self.extra_text,
                "series": self.series,
                "grid": self.grid,
            }
        )


def render_record(record: dict) -> str:
    """One experiment's report: the measured table, paper vs measured,
    pre-rendered text and notes."""
    blocks = [
        format_table(
            record["headers"],
            record["rows"],
            title=f"[{record['id']}] {record['title']}",
        )
    ]
    if record["comparisons"]:
        blocks.append(
            comparison_table(
                [
                    Comparison(
                        entry["metric"],
                        entry["paper"],
                        entry["measured"],
                        entry["unit"],
                    )
                    for entry in record["comparisons"]
                ],
                title="paper vs measured",
            )
        )
    if record["extra_text"]:
        blocks.append(record["extra_text"])
    for note in record["notes"]:
        blocks.append(f"note: {note}")
    return "\n\n".join(blocks)


def _series(headers, rows) -> dict:
    return {"headers": list(headers), "rows": rows}


def _precision_grid(precisions, n_values) -> dict:
    return {
        "precisions": [precision.name for precision in precisions],
        "n": list(n_values),
    }


def _density_series(layout) -> dict:
    """A layout's occupancy grid, row 0 at the die's bottom edge."""
    return _series(
        [f"col{index}" for index in range(layout.occupancy.shape[1])],
        [[round(float(value), 4) for value in row]
         for row in layout.occupancy],
    )


# ----------------------------------------------------------------------
# Fig. 1 — quantization accuracy
# ----------------------------------------------------------------------
def fig1_quant_accuracy(spec: SweepSpec) -> ExperimentResult:
    """Accuracy of the NumPy CNN at FP32 and INT8..INT2 (Fig. 1's
    minimal-degradation story on our offline substrate)."""
    # Quick trains on the full dataset for fewer epochs and keeps the
    # INT2 point, so every Fig. 1 claim is checked at both presets.
    dataset = make_synthetic_dataset(train_per_class=100, test_per_class=30)
    model = SmallCnn()
    model.train(dataset, epochs=3 if spec.quick else 8)
    sweep = quantization_sweep(
        model, dataset, widths=(8, 4, 2) if spec.quick else (8, 6, 5, 4, 3, 2)
    )
    rows = [
        (entry.precision, round(entry.accuracy * 100, 1),
         round(entry.drop * 100, 1))
        for entry in sweep
    ]
    # Close the loop: run the INT8-compiled network on the simulated
    # accelerator itself (integer conv + SDP + PDP pipeline).
    from repro.models.deploy import compile_small_cnn, evaluate_on_accelerator

    compiled = compile_small_cnn(model, dataset, precision=8)
    accelerated = evaluate_on_accelerator(
        compiled,
        dataset.test_x,
        dataset.test_y,
        limit=30 if spec.quick else 120,
        engine="tempus",
    )
    baseline = sweep[0].accuracy
    rows.append(
        (
            "INT8 on Tempus Core",
            round(accelerated * 100, 1),
            round((baseline - accelerated) * 100, 1),
        )
    )
    rows = tuple(rows)
    reference_rows = [
        (name, *(values.get(k, "-") for k in ("FP32", "INT8", "INT4")))
        for name, values in paper.FIG1_REFERENCE_ACCURACY.items()
    ]
    extra = format_table(
        ["model", "FP32", "INT8", "INT4"],
        reference_rows,
        title="paper Fig. 1 source accuracies (Jain et al., reference)",
    )
    int4 = next((e for e in sweep if e.precision == "INT4"), None)
    notes = [
        "reproduced shape: INT8..INT4 within a few points of FP32, cliff "
        "below INT4",
    ]
    comparisons = []
    if int4 is not None:
        comparisons.append(
            Comparison(
                "INT4 accuracy drop (points)",
                paper=4.0,  # typical FP32->INT4 drop in the Fig. 1 source
                measured=round(int4.drop * 100, 2),
                unit="%",
            )
        )
    return ExperimentResult(
        experiment_id="fig1",
        title="Quantization accuracy vs precision (synthetic substrate)",
        headers=("precision", "accuracy %", "drop vs FP32"),
        rows=rows,
        comparisons=tuple(comparisons),
        notes=tuple(notes),
        extra_text=extra,
    )


# ----------------------------------------------------------------------
# Table I — word sparsity
# ----------------------------------------------------------------------
def table1_word_sparsity(spec: SweepSpec) -> ExperimentResult:
    """Zero-weight percentage of the eight INT8 model-zoo CNNs."""
    scale = 0.25 if spec.quick else 1.0
    names = spec.nets[:3] if spec.quick else spec.nets
    rows = []
    comparisons = []
    for name in names:
        model = load_quantized_model(name, scale=scale)
        label = TABLE1_LABELS[name]
        measured = model.word_sparsity() * 100.0
        reported = paper.TABLE1_WORD_SPARSITY[label]
        rows.append((label, reported, round(measured, 3)))
        comparisons.append(
            Comparison(
                f"{label} word sparsity", reported, round(measured, 3), "%"
            )
        )
    return ExperimentResult(
        experiment_id="table1",
        title="Word sparsity of INT8-quantized CNNs",
        headers=("model", "paper %", "measured %"),
        rows=tuple(rows),
        comparisons=tuple(comparisons),
        notes=(
            "weights are synthetic mixtures calibrated per model; "
            "sparsity is the calibration target",
        ),
        grid={"nets": names},
    )


# ----------------------------------------------------------------------
# Fig. 2 — tub multiplier dataflow
# ----------------------------------------------------------------------
def fig2_tub_dataflow(spec: SweepSpec) -> ExperimentResult:
    """Cycle-by-cycle trace of INT4 tub multiplications."""
    examples = [(5, 6), (-3, 7), (7, -8), (4, 0)]
    traces = [tub_multiply(a, w, spec=INT4) for a, w in examples]
    rows = tuple(
        (
            trace.activation,
            trace.weight,
            trace.product,
            trace.cycles,
            "yes" if trace.product == trace.activation * trace.weight
            else "NO",
        )
        for trace in traces
    )
    extra = "\n\n".join(trace.render() for trace in traces[:2])
    return ExperimentResult(
        experiment_id="fig2",
        title="INT4 tub multiplier dataflow (2s-unary weight streams)",
        headers=("activation", "weight", "product", "cycles", "exact"),
        rows=rows,
        notes=(
            "cycles = ceil(|weight| / 2); a zero weight is a silent lane "
            "(0 cycles)",
        ),
        extra_text=extra,
    )


# ----------------------------------------------------------------------
# Fig. 3 — NVDLA integration / dataflow compliance
# ----------------------------------------------------------------------
def fig3_integration(spec: SweepSpec) -> ExperimentResult:
    """Run the same layer through the binary CC and Tempus Core
    (burst-level simulation, bit-identical to tick-level) and check
    bit-exact agreement."""
    rng = make_rng("fig3")
    size = 6 if spec.quick else 10
    config = CoreConfig(k=8, n=8, precision=INT8)
    spec = config.precision
    activations = spec.random_array(rng, (8, size, size))
    weights = spec.random_array(rng, (8, 8, 3, 3))
    binary = ConvolutionCore(config, mode="burst").run_layer(
        activations, weights, stride=1, padding=1
    )
    tempus = TempusCore(config, mode="burst").run_layer(
        activations, weights, stride=1, padding=1
    )
    exact = bool(np.array_equal(binary.output, tempus.output))
    rows = (
        ("NVDLA CC (binary)", binary.cycles, binary.atoms, "-"),
        (
            "Tempus Core (tub)",
            tempus.cycles,
            tempus.atoms,
            f"{tempus.cycles / binary.cycles:.1f}x",
        ),
    )
    return ExperimentResult(
        experiment_id="fig3",
        title="Drop-in integration: identical dataflow, identical outputs",
        headers=("engine", "cycles", "atoms", "latency vs binary"),
        rows=rows,
        notes=(
            f"outputs bit-exact: {exact}",
            "same CSC schedule and CACC; only the MAC array differs "
            "(multi-cycle tub bursts via the added handshake)",
            "simulated with the vectorized burst engine (mode='burst'), "
            "bit-identical to tick-level mode='cycle' at NumPy speed",
        ),
    )


# ----------------------------------------------------------------------
# Table II — single PE cell synthesis
# ----------------------------------------------------------------------
def table2_pe_cell_synthesis(spec: SweepSpec) -> ExperimentResult:
    """Binary vs tub PE cell area/power across precisions and n."""
    n_values = (16, 256) if spec.quick else (16, 256, 1024)
    rows = []
    comparisons = []
    precisions = (INT4, INT8)
    for precision in precisions:
        for n in n_values:
            binary = synthesize(binary_pe_cell_netlist(precision, n))
            tub = synthesize(tub_pe_cell_netlist(precision, n))
            area_red = 100 * (1 - tub.area_um2 / binary.area_um2)
            power_red = 100 * (
                1 - tub.total_power_mw / binary.total_power_mw
            )
            key = (precision.name, n)
            paper_area = paper.TABLE2_CELL_AREA_MM2.get(key)
            paper_power = paper.TABLE2_CELL_POWER_MW.get(key)
            rows.append(
                (
                    precision.name,
                    n,
                    round(binary.area_mm2, 4),
                    round(tub.area_mm2, 4),
                    round(area_red, 1),
                    round(binary.total_power_mw, 3),
                    round(tub.total_power_mw, 3),
                    round(power_red, 1),
                )
            )
            if paper_area:
                comparisons.append(
                    Comparison(
                        f"{precision.name} n={n} area improvement",
                        paper_area[2],
                        round(area_red, 1),
                        "%",
                    )
                )
            if paper_power:
                comparisons.append(
                    Comparison(
                        f"{precision.name} n={n} power improvement",
                        paper_power[2],
                        round(power_red, 1),
                        "%",
                    )
                )
    return ExperimentResult(
        experiment_id="table2",
        title="Single PE cell (k=1): post-synthesis area and power",
        headers=(
            "precision",
            "n",
            "bin area mm2",
            "tub area mm2",
            "area red %",
            "bin power mW",
            "tub power mW",
            "power red %",
        ),
        rows=tuple(rows),
        comparisons=tuple(comparisons),
        notes=(
            "absolute PPA comes from an analytical gate model, not "
            "Design Compiler; the reproduced claims are the orderings "
            "and trends (tub << binary, INT8 advantage > INT4)",
        ),
        grid=_precision_grid(precisions, n_values),
    )


# ----------------------------------------------------------------------
# Fig. 4 — 16x16 arrays
# ----------------------------------------------------------------------
def fig4_array16x16(spec: SweepSpec) -> ExperimentResult:
    """Area/power of the 16x16 binary vs tub arrays (INT4/INT8)."""
    rows = []
    comparisons = []
    chart_labels = []
    chart_values = []
    for precision in (INT8, INT4):
        binary = synthesize(binary_array_netlist(16, 16, precision))
        tub = synthesize(tub_array_netlist(16, 16, precision))
        area_red = 100 * (1 - tub.area_um2 / binary.area_um2)
        power_red = 100 * (1 - tub.total_power_mw / binary.total_power_mw)
        rows.append(
            (
                precision.name,
                round(binary.area_mm2, 4),
                round(tub.area_mm2, 4),
                round(area_red, 1),
                round(binary.total_power_mw, 2),
                round(tub.total_power_mw, 2),
                round(power_red, 1),
            )
        )
        reference = paper.FIG4_ARRAY_16X16[precision.name]
        comparisons.append(
            Comparison(
                f"{precision.name} area reduction",
                reference["area_reduction_pct"],
                round(area_red, 1),
                "%",
            )
        )
        comparisons.append(
            Comparison(
                f"{precision.name} power reduction",
                reference["power_reduction_pct"],
                round(power_red, 1),
                "%",
            )
        )
        chart_labels += [
            f"{precision.name} binary power",
            f"{precision.name} tub power",
        ]
        chart_values += [binary.total_power_mw, tub.total_power_mw]
    extra = ascii_bar_chart(
        chart_labels,
        chart_values,
        title="Fig. 4 (power view), mW at 250 MHz",
    )
    return ExperimentResult(
        experiment_id="fig4",
        title="16x16 PE array: post-synthesis power and area",
        headers=(
            "precision",
            "bin area mm2",
            "tub area mm2",
            "area red %",
            "bin power mW",
            "tub power mW",
            "power red %",
        ),
        rows=tuple(rows),
        comparisons=tuple(comparisons),
        extra_text=extra,
    )


# ----------------------------------------------------------------------
# Fig. 5 — CMAC unit vs PCU
# ----------------------------------------------------------------------
def fig5_cmac_vs_pcu(spec: SweepSpec) -> ExperimentResult:
    """Whole-unit comparison across array widths and precisions."""
    n_values = (4, 16) if spec.quick else (4, 16, 32)
    precisions = (INT8,) if spec.quick else tuple(
        int_spec(width) for width in (2, 4, 8)
    )
    rows = []
    headline = None
    for precision in precisions:
        for n in n_values:
            cmac = synthesize(cmac_unit_netlist(16, n, precision))
            pcu = synthesize(pcu_unit_netlist(16, n, precision))
            area_red = 100 * (1 - pcu.area_um2 / cmac.area_um2)
            power_red = 100 * (
                1 - pcu.total_power_mw / cmac.total_power_mw
            )
            rows.append(
                (
                    precision.name,
                    f"16x{n}",
                    round(cmac.area_mm2, 4),
                    round(pcu.area_mm2, 4),
                    round(area_red, 1),
                    round(cmac.total_power_mw, 2),
                    round(pcu.total_power_mw, 2),
                    round(power_red, 1),
                )
            )
            if precision.name == "INT8" and n == 4:
                headline = (area_red, power_red)
    comparisons = []
    if headline is not None:
        comparisons = [
            Comparison(
                "INT8 unit area improvement",
                paper.FIG5_UNIT_IMPROVEMENT["area_reduction_pct"],
                round(headline[0], 1),
                "%",
            ),
            Comparison(
                "INT8 unit power improvement",
                paper.FIG5_UNIT_IMPROVEMENT["power_reduction_pct"],
                round(headline[1], 1),
                "%",
            ),
        ]
    return ExperimentResult(
        experiment_id="fig5",
        title="Entire CMAC unit vs PCU across widths and precisions",
        headers=(
            "precision",
            "array",
            "cmac area mm2",
            "pcu area mm2",
            "area red %",
            "cmac power mW",
            "pcu power mW",
            "power red %",
        ),
        rows=tuple(rows),
        comparisons=tuple(comparisons),
        notes=(
            "our unit-level power advantage exceeds the paper's 15.3%: "
            "the paper's DC power report is dominated by unit-level "
            "clock/retiming overhead we model more lightly",
        ),
        grid=_precision_grid(precisions, n_values),
    )


# ----------------------------------------------------------------------
# Fig. 6 + Table III — place and route
# ----------------------------------------------------------------------
def fig6_layout(spec: SweepSpec) -> ExperimentResult:
    """P&R layout density maps for the INT4 16x4 CMAC vs PCU."""
    resolution = 16 if spec.quick else 32
    cmac = place_and_route(
        cmac_unit_netlist(16, 4, INT4), grid_resolution=resolution
    )
    pcu = place_and_route(
        pcu_unit_netlist(16, 4, INT4), grid_resolution=resolution
    )
    rows = (
        (
            "CMAC",
            round(cmac.die_area_mm2, 4),
            round(cmac.floorplan.utilization, 3),
            round(cmac.routing.total_wirelength_um, 0),
            round(cmac.total_power_mw, 2),
        ),
        (
            "PCU",
            round(pcu.die_area_mm2, 4),
            round(pcu.floorplan.utilization, 3),
            round(pcu.routing.total_wirelength_um, 0),
            round(pcu.total_power_mw, 2),
        ),
    )
    extra = "\n\n".join(
        [
            cmac.layout.render("CMAC 16x4 INT4 layout density"),
            pcu.layout.render("PCU 16x4 INT4 layout density"),
        ]
    )
    return ExperimentResult(
        experiment_id="fig6",
        title="Layout density, INT4 16x4 (both at 70% floorplan "
        "utilization of their own die)",
        headers=(
            "design",
            "die mm2",
            "utilization",
            "wirelength um",
            "power mW",
        ),
        rows=rows,
        notes=(
            "the paper overlays both on one floorplan; the PCU fills "
            "less than half the CMAC's cell area — compare the die areas",
        ),
        extra_text=extra,
        series={
            "cmac_density": _density_series(cmac.layout),
            "pcu_density": _density_series(pcu.layout),
        },
    )


def table3_pnr(spec: SweepSpec) -> ExperimentResult:
    """Post-P&R total area / power, 16x4 INT4."""
    cmac = place_and_route(cmac_unit_netlist(16, 4, INT4))
    pcu = place_and_route(pcu_unit_netlist(16, 4, INT4))
    area_red = 100 * (1 - pcu.die_area_mm2 / cmac.die_area_mm2)
    power_red = 100 * (1 - pcu.total_power_mw / cmac.total_power_mw)
    rows = (
        (
            "CMAC Core",
            paper.TABLE3_PNR["CMAC"]["area_mm2"],
            round(cmac.die_area_mm2, 4),
            paper.TABLE3_PNR["CMAC"]["power_mw"],
            round(cmac.total_power_mw, 3),
        ),
        (
            "Tempus Core",
            paper.TABLE3_PNR["Tempus"]["area_mm2"],
            round(pcu.die_area_mm2, 4),
            paper.TABLE3_PNR["Tempus"]["power_mw"],
            round(pcu.total_power_mw, 3),
        ),
    )
    comparisons = (
        Comparison(
            "P&R area reduction",
            paper.TABLE3_PNR["area_reduction_pct"],
            round(area_red, 1),
            "%",
        ),
        Comparison(
            "P&R power reduction",
            paper.TABLE3_PNR["power_reduction_pct"],
            round(power_red, 1),
            "%",
        ),
    )
    return ExperimentResult(
        experiment_id="table3",
        title="Post-place-and-route, 16x4 INT4, 70% utilization",
        headers=(
            "design",
            "paper area mm2",
            "measured area mm2",
            "paper power mW",
            "measured power mW",
        ),
        rows=rows,
        comparisons=comparisons,
        notes=(
            "timing met at 250 MHz for both: "
            f"CMAC {cmac.critical_path_ns:.2f} ns, "
            f"PCU {pcu.critical_path_ns:.2f} ns (4 ns period)",
        ),
    )


# ----------------------------------------------------------------------
# Fig. 7 / Fig. 8 — weight profiling
# ----------------------------------------------------------------------
_PROFILED_MODELS = {
    "mobilenet_v2": "MobileNetV2",
    "resnext101": "ResNeXt101",
}


def fig7_weight_magnitude(spec: SweepSpec) -> ExperimentResult:
    """Tile-max weight-magnitude histograms and mean burst latency."""
    scale = 0.25 if spec.quick else 1.0
    rows = []
    comparisons = []
    charts = []
    series = {}
    for name, label in _PROFILED_MODELS.items():
        model = load_quantized_model(name, scale=scale)
        profile = profile_model_magnitudes(model)
        mean_cycles = profile.mean_latency_cycles()
        rows.append(
            (
                label,
                profile.total_tiles,
                round(profile.mean_magnitude(), 1),
                round(mean_cycles, 1),
                worst_case_cycles(model.precision),
            )
        )
        comparisons.append(
            Comparison(
                f"{label} mean burst cycles",
                paper.SECVC_WORKLOAD[label]["mean_burst_cycles"],
                round(mean_cycles, 1),
                "cycles",
            )
        )
        binned = profile.binned_rows(bins=8)
        charts.append(
            ascii_bar_chart(
                [f"max in {bin_label}" for bin_label, _ in binned],
                [count for _, count in binned],
                title=f"{label}: tile-max magnitude distribution",
                value_format="d",
            )
        )
        series[f"{name}_magnitude"] = _series(
            ("magnitude", "frequency"), profile.to_rows()
        )
    return ExperimentResult(
        experiment_id="fig7",
        title="Weight-magnitude profiling, 16x16 max pool",
        headers=(
            "model",
            "tiles",
            "mean tile max",
            "mean burst cycles",
            "worst case",
        ),
        rows=tuple(rows),
        comparisons=tuple(comparisons),
        notes=(
            "2s-unary halves the tile max into the burst length; both "
            "models land near half the worst-case 64 cycles, as in the "
            "paper",
        ),
        extra_text="\n\n".join(charts),
        series=series,
    )


def fig8_sparsity_profile(spec: SweepSpec) -> ExperimentResult:
    """Silent-PE (zero weight per tile) histograms."""
    scale = 0.25 if spec.quick else 1.0
    rows = []
    comparisons = []
    series = {}
    for name, label in _PROFILED_MODELS.items():
        model = load_quantized_model(name, scale=scale)
        profile = profile_model_sparsity(model)
        mean_silent = profile.mean_silent_pes()
        rows.append(
            (
                label,
                profile.total_tiles,
                round(mean_silent, 2),
                round(profile.mean_active_pes(), 1),
                round(profile.word_sparsity * 100, 2),
            )
        )
        comparisons.append(
            Comparison(
                f"{label} mean silent PEs per tile",
                paper.SECVC_WORKLOAD[label]["mean_silent_pes"],
                round(mean_silent, 2),
                "PEs",
            )
        )
        series[f"{name}_sparsity"] = _series(
            ("silent_pes", "tiles"), profile.to_rows()
        )
    return ExperimentResult(
        experiment_id="fig8",
        title="Sparsity profiling: silent PEs per 16x16 tile",
        headers=(
            "model",
            "tiles",
            "mean silent PEs",
            "mean active PEs",
            "word sparsity %",
        ),
        rows=tuple(rows),
        comparisons=tuple(comparisons),
        series=series,
    )


# ----------------------------------------------------------------------
# Sec. V-C — workload energy
# ----------------------------------------------------------------------
def secVC_energy(spec: SweepSpec) -> ExperimentResult:
    """Energy per burst: binary vs tub, workload-dependent + worst case."""
    scale = 0.25 if spec.quick else 1.0
    config8 = CoreConfig(k=16, n=16, precision=INT8)
    config4 = CoreConfig(k=16, n=16, precision=INT4)
    rows = []
    comparisons = []
    for name, label in _PROFILED_MODELS.items():
        model = load_quantized_model(name, scale=scale)
        magnitude = profile_model_magnitudes(model)
        sparsity = profile_model_sparsity(model)
        active_fraction = sparsity.mean_active_pes() / 256.0
        energy = workload_energy(
            label,
            config8,
            burst_cycles=magnitude.mean_latency_cycles(),
            active_fraction=active_fraction,
        )
        rows.append(
            (
                label,
                "INT8",
                round(energy.burst_cycles, 1),
                round(energy.binary_energy_pj, 2),
                round(energy.tub_energy_pj, 2),
                round(energy.tub_energy_silent_adjusted_pj, 2),
                round(energy.energy_gap, 2),
            )
        )
        comparisons.append(
            Comparison(
                f"{label} tub energy",
                paper.SECVC_WORKLOAD[label]["tub_energy_pj"],
                round(energy.tub_energy_pj, 1),
                "pJ",
            )
        )
    worst8 = workload_energy(
        "worst-case", config8, burst_cycles=worst_case_cycles(INT8)
    )
    worst4 = workload_energy(
        "worst-case", config4, burst_cycles=worst_case_cycles(INT4)
    )
    rows.append(
        (
            "worst-case",
            "INT8",
            worst8.burst_cycles,
            round(worst8.binary_energy_pj, 2),
            round(worst8.tub_energy_pj, 2),
            round(worst8.tub_energy_pj, 2),
            round(worst8.energy_gap, 2),
        )
    )
    rows.append(
        (
            "worst-case",
            "INT4",
            worst4.burst_cycles,
            round(worst4.binary_energy_pj, 2),
            round(worst4.tub_energy_pj, 2),
            round(worst4.tub_energy_pj, 2),
            round(worst4.energy_gap, 2),
        )
    )
    comparisons += [
        Comparison(
            "INT8 binary energy",
            paper.SECVC_INT8["binary_energy_pj"],
            round(worst8.binary_energy_pj, 2),
            "pJ",
        ),
        Comparison(
            "INT4 binary energy",
            paper.SECVC_INT4["binary_energy_pj"],
            round(worst4.binary_energy_pj, 2),
            "pJ",
        ),
        Comparison(
            "INT4 tub energy",
            paper.SECVC_INT4["tub_energy_pj"],
            round(worst4.tub_energy_pj, 2),
            "pJ",
        ),
        Comparison(
            "INT4 energy gap",
            paper.SECVC_INT4["energy_gap"],
            round(worst4.energy_gap, 2),
            "x",
        ),
    ]
    return ExperimentResult(
        experiment_id="secVC",
        title="Workload-dependent energy per k-psum burst (16x16 array)",
        headers=(
            "workload",
            "precision",
            "burst cycles",
            "binary pJ",
            "tub pJ",
            "tub pJ (silent-adj)",
            "gap",
        ),
        rows=tuple(rows),
        comparisons=tuple(comparisons),
        notes=(
            "the tub array trades energy-per-burst for area; lower "
            "precision shrinks the gap (paper: 11.7x -> 2.3x from INT8 "
            "to INT4)",
        ),
    )


# ----------------------------------------------------------------------
# Sec. V-D + Fig. 9 — iso-area throughput
# ----------------------------------------------------------------------
def secVD_iso_area(spec: SweepSpec) -> ExperimentResult:
    """Iso-area throughput improvement for the 16x16 arrays."""
    rows = []
    comparisons = []
    for precision in (INT8, INT4):
        binary = synthesize(binary_array_netlist(16, 16, precision))
        tub = synthesize(tub_array_netlist(16, 16, precision))
        improvement = iso_area_improvement(binary.area_um2, tub.area_um2)
        rows.append(
            (
                precision.name,
                round(binary.area_mm2, 4),
                round(tub.area_mm2, 4),
                round(improvement, 2),
            )
        )
        comparisons.append(
            Comparison(
                f"{precision.name} iso-area throughput",
                paper.SECVD_ISO_AREA[precision.name],
                round(improvement, 2),
                "x",
            )
        )
    return ExperimentResult(
        experiment_id="secVD",
        title="Iso-area throughput improvement, 16x16 array",
        headers=(
            "precision",
            "binary area mm2",
            "tub area mm2",
            "improvement",
        ),
        rows=tuple(rows),
        comparisons=tuple(comparisons),
        notes=(
            "improvement = binary_area / tub_area: that many more tub "
            "cells fit at iso-area, each producing k psums per burst",
        ),
    )


def fig9_iso_area_scaling(spec: SweepSpec) -> ExperimentResult:
    """Single-cell iso-area throughput vs n, with the n=65536
    projection."""
    n_values = [16, 64, 256] if spec.quick else [16, 64, 256, 1024, 4096]
    rows = []
    comparisons = []
    precisions = (INT8, INT4)
    for precision in precisions:
        improvements = []
        for n in n_values:
            binary = synthesize(binary_pe_cell_netlist(precision, n))
            tub = synthesize(tub_pe_cell_netlist(precision, n))
            improvements.append(
                iso_area_improvement(binary.area_um2, tub.area_um2)
            )
        projected = project_improvement(n_values, improvements, 65536)
        for n, improvement in zip(n_values, improvements):
            rows.append((precision.name, n, round(improvement, 2), ""))
        rows.append(
            (precision.name, 65536, round(projected, 2), "projected")
        )
        comparisons.append(
            Comparison(
                f"{precision.name} projected improvement @ n=65536",
                paper.FIG9_PROJECTION[precision.name],
                round(projected, 2),
                "x",
            )
        )
    return ExperimentResult(
        experiment_id="fig9",
        title="Iso-area throughput vs number of multipliers (single cell)",
        headers=("precision", "n", "improvement", ""),
        rows=tuple(rows),
        comparisons=tuple(comparisons),
        notes=(
            "the trend grows with n (the binary multiplier area "
            "dominates); our absolute ratios are below the paper's "
            "because our tub cell model carries more per-lane hardware",
        ),
        grid=_precision_grid(precisions, n_values),
    )


# ----------------------------------------------------------------------
# background / ablations
# ----------------------------------------------------------------------
def gemm_baselines(spec: SweepSpec) -> ExperimentResult:
    """tuGEMM vs tubGEMM vs binary GEMM (Sec. II-B background)."""
    rng = make_rng("gemm-bench")
    size = 6 if spec.quick else 12
    rows = []
    for precision in (INT8, INT4):
        spec = int_spec(precision)
        a = spec.random_array(rng, (size, size))
        b = spec.random_array(rng, (size, size))
        expected = a @ b
        for engine in (
            BinaryGemm(spec),
            TuGemm(spec),
            TubGemm(spec),
        ):
            result = engine.multiply(a, b)
            rows.append(
                (
                    type(engine).__name__,
                    spec.name,
                    result.cycles,
                    engine.worst_case_cycles(size),
                    "yes"
                    if np.array_equal(result.output, expected)
                    else "NO",
                )
            )
    return ExperimentResult(
        experiment_id="gemm",
        title="Unary GEMM baselines (prior work the paper builds on)",
        headers=(
            "engine",
            "precision",
            "cycles",
            "worst case",
            "exact",
        ),
        rows=tuple(rows),
        notes=(
            "tubGEMM's 2s-unary hybrid removes tuGEMM's quadratic "
            "latency; Tempus Core lifts the same multiplier into the "
            "convolution dataflow",
        ),
    )


def ablation_encoding(spec: SweepSpec) -> ExperimentResult:
    """Design-choice ablation: 2s-unary vs pure unary burst latency, and
    PCU burst overhead sensitivity."""
    scale = 0.25 if spec.quick else 0.5
    model = load_quantized_model("mobilenet_v2", scale=scale)
    profile = profile_model_magnitudes(model)
    twos = profile.mean_latency_cycles(TwosUnaryCode())
    pure = profile.mean_latency_cycles(PureUnaryCode())
    rows = [
        ("pure unary", round(pure, 1), "1.00x"),
        ("2s-unary", round(twos, 1), f"{pure / max(twos, 1e-9):.2f}x"),
    ]
    for overhead in (0, 1, 2, 4):
        rows.append(
            (
                f"2s-unary + {overhead}-cycle burst overhead",
                round(twos + overhead, 1),
                f"{pure / (twos + overhead):.2f}x",
            )
        )
    return ExperimentResult(
        experiment_id="ablation",
        title="Encoding ablation: mean burst cycles on MobileNetV2 tiles",
        headers=("configuration", "mean cycles", "speedup vs pure unary"),
        rows=tuple(rows),
        notes=(
            "2s-unary's halving is the paper's key latency lever; the "
            "PCU's cache-in/out overhead is amortised over the burst",
        ),
    )


def ablation_scheduling(spec: SweepSpec) -> ExperimentResult:
    """Future-work extension: burst-aware tile scheduling (channel/kernel
    permutation) on profiled CNN weights."""
    from repro.core.scheduling import model_schedule_savings

    scale = 0.25 if spec.quick else 0.5
    config = CoreConfig(k=16, n=16, precision=INT8)
    model = load_quantized_model("mobilenet_v2", scale=scale)
    per_layer = model_schedule_savings(model, config)
    baseline = sum(row[1] for row in per_layer)
    optimized = sum(row[2] for row in per_layer)
    best = sorted(per_layer, key=lambda row: row[3], reverse=True)[:6]
    rows = [
        (
            name.removeprefix("mobilenet_v2."),
            base,
            opt,
            f"{speedup:.3f}x",
        )
        for name, base, opt, speedup in best
    ]
    rows.append(
        (
            "TOTAL (all layers)",
            baseline,
            optimized,
            f"{baseline / max(optimized, 1):.3f}x",
        )
    )
    return ExperimentResult(
        experiment_id="scheduling",
        title="Extension: burst-aware tile scheduling (MobileNetV2)",
        headers=(
            "layer",
            "baseline cycles",
            "scheduled cycles",
            "speedup",
        ),
        rows=tuple(rows),
        notes=(
            "sorting channels/kernels by magnitude groups outliers into "
            "the same tiles; pure data-layout change, bit-exact outputs",
        ),
    )


def ablation_tile_size(spec: SweepSpec) -> ExperimentResult:
    """Design-space ablation: array (tile) size vs workload burst latency.

    Fig. 9 argues larger arrays win more iso-area throughput; the
    counterweight is that a larger k x n tile takes its maximum over more
    weights, lengthening every burst.  This sweep quantifies that latency
    cost on profiled MobileNetV2 weights.
    """
    scale = 0.25 if spec.quick else 0.5
    model = load_quantized_model("mobilenet_v2", scale=scale)
    geometries = [(4, 4), (8, 8), (16, 16), (32, 32)]
    rows = []
    for k, n in geometries:
        profile = profile_model_magnitudes(model, k=k, n=n)
        rows.append(
            (
                f"{k}x{n}",
                k * n,
                round(profile.mean_magnitude(), 1),
                round(profile.mean_latency_cycles(), 1),
                worst_case_cycles(model.precision),
            )
        )
    return ExperimentResult(
        experiment_id="tilesize",
        title="Ablation: tile size vs mean burst latency (MobileNetV2)",
        headers=(
            "array",
            "PEs",
            "mean tile max",
            "mean burst cycles",
            "worst case",
        ),
        rows=tuple(rows),
        notes=(
            "larger tiles take the max over more weights, pushing bursts "
            "toward the worst case — the latency price of the iso-area "
            "throughput scaling in Fig. 9",
        ),
    )


def ext_llm_projection(spec: SweepSpec) -> ExperimentResult:
    """Future-work extension: ultra-low-precision LLM projections
    (weight-only INT8/INT4/INT2) on the tub array."""
    from repro.gemm.llm import TINY_LLM, TransformerLayerDims, token_step_latency

    dims = TransformerLayerDims(256, 4, 704) if spec.quick else TINY_LLM
    config = CoreConfig(k=16, n=16, precision=INT8)
    rows = []
    for width in (8, 4, 2):
        results = token_step_latency(dims, width, config)
        tempus = sum(r.tempus_cycles for r in results.values())
        binary = sum(r.binary_cycles for r in results.values())
        rows.append(
            (
                f"INT{width} weights",
                binary,
                tempus,
                f"{tempus / binary:.2f}x",
                int_spec(width).worst_case_tub_cycles,
            )
        )
    return ExperimentResult(
        experiment_id="llm",
        title="Extension: one decoder-layer token step "
        f"(d_model={dims.d_model}, d_ff={dims.d_ff}) on a 16x16 array",
        headers=(
            "weight precision",
            "binary cycles",
            "tub cycles",
            "slowdown",
            "worst burst",
        ),
        rows=tuple(rows),
        notes=(
            "at INT2 every burst is 1 cycle: the tub array matches binary "
            "latency while keeping its area advantage — the paper's "
            "motivation for ultra-low-precision LLMs",
        ),
    )


#: Registry mapping experiment ids to drivers.
EXPERIMENTS = {
    "fig1": fig1_quant_accuracy,
    "table1": table1_word_sparsity,
    "fig2": fig2_tub_dataflow,
    "fig3": fig3_integration,
    "table2": table2_pe_cell_synthesis,
    "fig4": fig4_array16x16,
    "fig5": fig5_cmac_vs_pcu,
    "fig6": fig6_layout,
    "table3": table3_pnr,
    "fig7": fig7_weight_magnitude,
    "fig8": fig8_sparsity_profile,
    "secVC": secVC_energy,
    "secVD": secVD_iso_area,
    "fig9": fig9_iso_area_scaling,
    "gemm": gemm_baselines,
    "ablation": ablation_encoding,
    "tilesize": ablation_tile_size,
    "scheduling": ablation_scheduling,
    "llm": ext_llm_projection,
}


def run_experiment(
    experiment_id: str, quick: bool = False
) -> ExperimentResult:
    """Run one experiment by id (see :data:`EXPERIMENTS`) on the
    ``paper`` spec."""
    try:
        driver = EXPERIMENTS[experiment_id]
    except KeyError as exc:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: "
            f"{', '.join(sorted(EXPERIMENTS))}"
        ) from exc
    return driver(replace(PAPER_SWEEP, quick=quick))


def run_paper_benchmark(
    spec: SweepSpec = PAPER_SWEEP,
    out_dir: "str | Path | None" = "results",
) -> dict:
    """Every experiment of :data:`EXPERIMENTS`, one record each
    (``results/BENCH_paper.json``).

    Args:
        spec: the ``paper`` spec — its nets are Table I's, and
            ``quick`` selects each driver's reduced preset.
        out_dir: where BENCH_paper.json is written (None = don't).

    Returns:
        the payload written to the artifact.
    """
    payload = {
        "benchmark": "paper",
        "quick": bool(spec.quick),
        "experiments": [
            driver(spec).to_record() for driver in EXPERIMENTS.values()
        ],
    }
    return write_benchmark_artifact(payload, "BENCH_paper.json", out_dir)


def render_paper_benchmark(payload: dict) -> str:
    """Every experiment's report, in registry order."""
    return "\n\n".join(
        render_record(record) for record in payload["experiments"]
    )
