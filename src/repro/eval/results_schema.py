"""Schema check for the ``results/BENCH_*.json`` artifacts.

Every benchmark driver in this repo writes a JSON artifact; CI (and
the tier-1 suite) verify that each one parses and that its records
normalize to the common benchmark-record fields::

    net        — zoo model (or layer) the record measures
    backend    — compute backend / engine the record ran on
    precision  — precision profile the record ran at
    cycles     — simulated conv cycles of the record

:func:`normalize_records` knows every artifact kind's layout and flattens
it into those records, so downstream tooling (dashboards, regression
diffing) reads one shape regardless of which driver produced the file.
Each normalizer also asserts the claims its artifact exists to carry
(bit-identity flags, orderings such as tubGEMM cycles below tuGEMM's,
and the shape of every table and figure of the paper in
``BENCH_paper.json``), so a regenerated artifact that breaks one fails
the check.
``python -m repro check-results [dir]`` runs :func:`check_results_dir`.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import DataflowError
from repro.eval.report import Comparison
from repro.quant.profile import precision_profile

#: Fields every normalized benchmark record carries.
COMMON_FIELDS = ("net", "backend", "precision", "cycles")


def _record(net, backend, precision, cycles) -> dict:
    record = {
        "net": str(net),
        "backend": str(backend),
        "precision": str(precision),
        "cycles": int(cycles),
    }
    if record["cycles"] < 0:
        raise DataflowError(f"negative cycle count in record {record}")
    return record


def _claim(holds, message: str) -> None:
    if not holds:
        raise DataflowError(f"claim violated: {message}")


def _serving_records(payload: dict) -> list:
    precision = payload.get("precision_profile", "int8")
    backend = payload.get("engine", "tempus")
    transport = payload.get("transport", "pickle")
    if transport not in ("pickle", "shm"):
        raise DataflowError(
            f"serving payload carries unknown transport {transport!r}"
        )
    records = []
    for model in payload["models"]:
        name = model["model"]
        sweep = model["workers"]
        rates = [point["requests_per_second"] for point in sweep]
        _claim(
            model["requests_per_second_monotonic"]
            and all(later >= earlier
                    for earlier, later in zip(rates, rates[1:])),
            f"serving {name}: simulated requests/sec does not rise "
            "with the worker count",
        )
        for point in sweep:
            records.append(
                _record(name, backend, precision, point["conv_cycles"])
            )
            _claim(
                point["bit_identical_to_reference"],
                f"serving {name} at {point['workers']} worker(s) "
                "diverged from the reference",
            )
        for point in model["faulted"]:
            records.append(
                _record(name, backend, precision, point["conv_cycles"])
            )
            where = (
                f"serving {name} at {point['workers']} worker(s), "
                f"fault rate {point['fault_rate']}"
            )
            _claim(point["completed"], f"{where}: a stream did not complete")
            _claim(
                point["bit_identical_to_reference"],
                f"{where} diverged from the reference",
            )
            _claim(
                point["recovered"],
                f"{where}: no restart, redispatch or retry",
            )
    return records


def _backend_records(payload: dict) -> list:
    records = []
    for model in payload["models"]:
        binary_cycles = set()
        # temporal backend -> [(width, cycles)] over uniform profiles
        temporal: dict = {}
        for entry in model["precisions"]:
            point = f"backends {entry['net']} @ {entry['precision']}"
            profile = precision_profile(entry["precision"])
            stats = entry["backends"]
            _claim(
                entry["outputs_bit_identical"],
                f"{point}: backend outputs differ",
            )
            for backend, record in stats.items():
                records.append(
                    _record(
                        entry["net"], backend, entry["precision"],
                        record["conv_cycles"],
                    )
                )
                _claim(
                    record["energy"]["pj_per_image"] > 0,
                    f"{point}: {backend} carries no pJ/image",
                )
                if record["temporal"] and profile.is_uniform:
                    temporal.setdefault(backend, []).append(
                        (profile.widest.width, record["conv_cycles"])
                    )
            if "tubgemm" in stats and "tugemm" in stats:
                _claim(
                    stats["tubgemm"]["conv_cycles"]
                    < stats["tugemm"]["conv_cycles"],
                    f"{point}: tubGEMM cycles not below tuGEMM's",
                )
            if "tempus" in stats:
                _claim(
                    entry["scheduling_speedup"] >= 1.0,
                    f"{point}: scheduling costs tempus cycles",
                )
            if "binary" in stats:
                binary_cycles.add(stats["binary"]["conv_cycles"])
        _claim(
            len(binary_cycles) <= 1,
            f"backends {model['model']}: binary cycles vary with "
            "precision",
        )
        # With binary cycles flat, the temporal:binary ratio falls as
        # precision drops exactly when the temporal cycles do.
        for backend, series in temporal.items():
            cycles = [count for _, count in sorted(series, reverse=True)]
            _claim(
                all(
                    later < earlier
                    for earlier, later in zip(cycles, cycles[1:])
                ),
                f"backends {model['model']}: the {backend}:binary "
                "cycle ratio does not fall as precision drops",
            )
    return records


def _pareto_records(payload: dict) -> list:
    # The autotuner's contract is structural, not just field-level:
    # the frontier must be a subset of the explored points with no
    # dominated (or SLO-violating) entry — a dominated "frontier"
    # point means the pruning is broken, so the artifact is rejected.
    from repro.tune.autotune import OBJECTIVES, dominates

    points = payload["points"]
    frontier = payload["frontier"]
    if not frontier:
        raise DataflowError(
            "pareto artifact carries an empty frontier"
        )
    explored = {
        tuple(point[objective] for objective in OBJECTIVES)
        for point in points
    }
    for point in frontier:
        if not point["meets_slo"]:
            raise DataflowError(
                f"frontier point {point['label']} violates the "
                f"recorded SLO {payload['slo']}"
            )
        vector = tuple(
            point[objective] for objective in OBJECTIVES
        )
        if vector not in explored:
            raise DataflowError(
                f"frontier point {point['label']} is not among the "
                "explored points"
            )
        for other in frontier:
            if other is not point and dominates(other, point):
                raise DataflowError(
                    f"frontier point {point['label']} is dominated "
                    f"by {other['label']} — the Pareto pruning is "
                    "broken"
                )
    return [
        _record(
            point["net"],
            point["backend"],
            point["precision"],
            point["cycles"],
        )
        for point in points
    ]


def _llm_records(payload: dict) -> list:
    records = []
    for entry in payload["records"]:
        for flag in (
            "bit_identical",
            "sharded_bit_identical",
            "matvec_parity",
        ):
            _claim(
                entry[flag],
                f"llm record {entry['backend']}/{entry['precision']}: "
                f"{flag} is false",
            )
        per_token = entry["per_token"]
        if len(per_token) != int(entry["tokens"]):
            raise DataflowError(
                f"llm record {entry['backend']}/{entry['precision']}: "
                f"expected {entry['tokens']} per-token points, got "
                f"{len(per_token)}"
            )
        series = [int(point["conv_cycles"]) for point in per_token]
        if any(
            later < earlier
            for earlier, later in zip(series, series[1:])
        ):
            raise DataflowError(
                f"llm record {entry['backend']}/{entry['precision']}: "
                "per-token cycles are not monotone nondecreasing — "
                "a growing prefix cannot cost fewer cycles"
            )
        if int(entry["conv_cycles"]) != series[-1]:
            raise DataflowError(
                f"llm record {entry['backend']}/{entry['precision']}: "
                "conv_cycles does not match the final decode step"
            )
        for percentile in ("p50", "p90", "p99"):
            if float(entry["latency_cycles"][percentile]) < 0.0:
                raise DataflowError(
                    f"llm record {entry['backend']}/"
                    f"{entry['precision']}: negative latency "
                    f"percentile {percentile}"
                )
        records.append(
            _record(
                entry["net"], entry["backend"], entry["precision"],
                entry["conv_cycles"],
            )
        )
    return records


# ---------------------------------------------------------------------
# BENCH_paper.json: one record per experiment of the paper's
# evaluation.  Each checker holds the shape claims of one table or
# figure (orderings and trends, not the absolute values a gate model
# cannot match); row counts come from the grid the record carries, so
# the quick preset is checked as strictly as the full one.
def _table(record: dict) -> list:
    """The record's rows as {header: value} dicts."""
    return [dict(zip(record["headers"], row)) for row in record["rows"]]


def _by(rows: list, column: str) -> dict:
    return {row[column]: row for row in rows}


def _grid_size(record: dict) -> int:
    size = 1
    for values in record["grid"].values():
        size *= len(values)
    return size


def _fig1_claims(record, rows):
    by = _by(rows, "precision")
    _claim(by["FP32"]["accuracy %"] > 80.0,
           "fig1: the FP32 substrate stays at or below 80% accuracy")
    _claim(by["INT8"]["drop vs FP32"] < 2.0,
           "fig1: INT8 loses 2 points or more")
    _claim(by["INT4"]["drop vs FP32"] < 5.0,
           "fig1: INT4 loses 5 points or more")
    _claim(by["INT2"]["drop vs FP32"] > by["INT4"]["drop vs FP32"],
           "fig1: no accuracy cliff below INT4")


def _table1_claims(record, rows):
    _claim(len(rows) == _grid_size(record),
           "table1: not one row per recorded net")
    for comparison in record["comparisons"]:
        _claim(
            abs(comparison["measured"] - comparison["paper"]) < 0.75,
            f"table1: {comparison['metric']} is 0.75 points or more "
            "off the paper",
        )


def _fig2_claims(record, rows):
    _claim(all(row["exact"] == "yes" for row in rows),
           "fig2: a tub product is not exact")


def _fig3_claims(record, rows):
    _claim(record["notes"][0] == "outputs bit-exact: True",
           "fig3: Tempus Core outputs differ from the binary core's")
    binary, tempus = (row["cycles"] for row in rows)
    _claim(binary < tempus <= 65 * binary,
           "fig3: tempus cycles not above binary's and within 65x")


def _table2_claims(record, rows):
    _claim(len(rows) == _grid_size(record),
           "table2: not one row per recorded precision x n")
    for row in rows:
        point = f"{row['precision']} n={row['n']}"
        _claim(row["tub area mm2"] < row["bin area mm2"],
               f"table2: tub area not below binary at {point}")
        _claim(row["tub power mW"] < row["bin power mW"],
               f"table2: tub power not below binary at {point}")
    int8 = [row["area red %"] for row in rows if row["precision"] == "INT8"]
    int4 = [row["area red %"] for row in rows if row["precision"] == "INT4"]
    _claim(min(int8) > max(int4),
           "table2: the INT8 area advantage does not exceed INT4's")


def _fig4_claims(record, rows):
    for row in rows:
        _claim(row["area red %"] > 30.0,
               f"fig4: {row['precision']} area reduction at or below 30%")
        _claim(row["power red %"] > 30.0,
               f"fig4: {row['precision']} power reduction at or below 30%")
    by = _by(rows, "precision")
    _claim(by["INT8"]["area red %"] > by["INT4"]["area red %"],
           "fig4: the INT8 area advantage does not exceed INT4's")


def _fig5_claims(record, rows):
    _claim(len(rows) == _grid_size(record),
           "fig5: not one row per recorded precision x width")
    for row in rows:
        point = f"{row['precision']} {row['array']}"
        _claim(row["pcu area mm2"] < row["cmac area mm2"],
               f"fig5: PCU area not below the CMAC's at {point}")
        _claim(row["power red %"] > 0,
               f"fig5: PCU power not below the CMAC's at {point}")
    for precision in record["grid"]["precisions"]:
        areas = [row["pcu area mm2"] for row in rows
                 if row["precision"] == precision]
        _claim(areas == sorted(areas),
               f"fig5: {precision} PCU area does not grow with n")


def _fig6_claims(record, rows):
    by = _by(rows, "design")
    _claim(by["PCU"]["die mm2"] < by["CMAC"]["die mm2"],
           "fig6: the PCU die is not smaller than the CMAC's")
    for row in rows:
        _claim(abs(row["utilization"] - 0.70) < 0.01,
               f"fig6: {row['design']} misses 70% utilization")
    maps = record["series"]
    _claim(
        sorted(maps) == ["cmac_density", "pcu_density"]
        and all(len(grid["rows"]) == len(grid["headers"])
                for grid in maps.values()),
        "fig6: expected square CMAC and PCU density maps",
    )


def _table3_claims(record, rows):
    by = _by(record["comparisons"], "metric")
    _claim(by["P&R area reduction"]["measured"] > 25.0,
           "table3: P&R area reduction at or below 25%")
    _claim(by["P&R power reduction"]["measured"] > 22.0,
           "table3: P&R power reduction at or below 22%")
    _claim("timing met" in record["notes"][0],
           "table3: timing not met at 250 MHz")


def _fig7_claims(record, rows):
    for row in rows:
        burst = row["mean burst cycles"]
        _claim(burst < row["worst case"] * 0.75,
               f"fig7: {row['model']} mean burst not below 75% of the "
               "worst case")
        _claim(burst > 5, f"fig7: {row['model']} mean burst at or "
               "below 5 cycles")
    for entry in record["comparisons"]:
        comparison = Comparison(
            entry["metric"], entry["paper"], entry["measured"]
        )
        _claim(comparison.within_factor(1.33),
               f"fig7: {entry['metric']} not within 1.33x of the paper")


def _fig8_claims(record, rows):
    for row in rows:
        silent = row["mean silent PEs"]
        _claim(0.0 < silent < 16.0,
               f"fig8: {row['model']} silent PEs outside (0, 16)")
        _claim(row["mean active PEs"] > 240.0,
               f"fig8: {row['model']} active PEs at or below 240")
        _claim(silent <= row["word sparsity %"] / 100 * 256 * 1.2,
               f"fig8: {row['model']} silent PEs above 1.2x the "
               "word-sparsity share")


def _secvc_claims(record, rows):
    worst = {row["precision"]: row for row in rows
             if row["workload"] == "worst-case"}
    _claim(worst["INT4"]["gap"] < worst["INT8"]["gap"] / 3,
           "secVC: the INT4 energy gap is not below a third of INT8's")
    for row in rows:
        if row["precision"] == "INT8":
            _claim(row["tub pJ"] > row["binary pJ"],
                   f"secVC: {row['workload']} tub energy not above "
                   "binary at INT8")
        _claim(row["tub pJ (silent-adj)"] <= row["tub pJ"] + 1e-9,
               f"secVC: {row['workload']} {row['precision']} silent-PE "
               "adjustment raises energy")


def _secvd_claims(record, rows):
    by = _by(rows, "precision")
    int8, int4 = by["INT8"]["improvement"], by["INT4"]["improvement"]
    _claim(int8 > 1.5, "secVD: INT8 iso-area improvement at or below 1.5x")
    _claim(int4 > 1.2, "secVD: INT4 iso-area improvement at or below 1.2x")
    _claim(int8 > int4,
           "secVD: the INT8 iso-area improvement does not exceed INT4's")


def _fig9_claims(record, rows):
    # The fourth column (header "") marks the n=65536 projections.
    measured = [row for row in rows if row[""] != "projected"]
    projected = [row for row in rows if row[""] == "projected"]
    _claim(
        len(measured) == _grid_size(record)
        and len(projected) == len(record["grid"]["precisions"]),
        "fig9: not one row per recorded precision x n plus one "
        "projection per precision",
    )
    for row in measured:
        _claim(row["improvement"] > 1.0,
               f"fig9: {row['precision']} n={row['n']} improvement at "
               "or below 1x")
    int4 = {row["n"]: row["improvement"] for row in measured
            if row["precision"] == "INT4"}
    for row in measured:
        if row["precision"] == "INT8":
            _claim(row["improvement"] > int4[row["n"]],
                   f"fig9: INT8 improvement does not exceed INT4's at "
                   f"n={row['n']}")
    for row in projected:
        _claim(row["improvement"] > 1.0,
               f"fig9: {row['precision']} projection at or below 1x")


def _gemm_claims(record, rows):
    _claim(all(row["exact"] == "yes" for row in rows),
           "gemm: a GEMM product is not exact")
    cycles = {row["engine"]: row["cycles"] for row in rows
              if row["precision"] == "INT8"}
    _claim(cycles["BinaryGemm"] < cycles["TubGemm"] < cycles["TuGemm"],
           "gemm: INT8 latency is not binary < tubGEMM < tuGEMM")


def _ablation_claims(record, rows):
    by = _by(rows, "configuration")
    ratio = by["pure unary"]["mean cycles"] / by["2s-unary"]["mean cycles"]
    _claim(1.8 < ratio < 2.2,
           "ablation: 2s-unary does not halve pure-unary bursts")
    overhead = [row["mean cycles"] for row in rows
                if "overhead" in row["configuration"]]
    _claim(overhead == sorted(overhead),
           "ablation: burst cycles do not rise with the overhead")


def _tilesize_claims(record, rows):
    bursts = [row["mean burst cycles"] for row in rows]
    _claim(bursts == sorted(bursts),
           "tilesize: mean bursts do not grow with the tile size")
    _claim(bursts[-1] <= rows[-1]["worst case"],
           "tilesize: the largest tile's mean burst exceeds the worst case")
    _claim(bursts[0] < bursts[-1],
           "tilesize: the smallest tile's mean burst is not below the "
           "largest's")


def _scheduling_claims(record, rows):
    total = rows[-1]
    _claim(
        total["layer"].startswith("TOTAL")
        and total["scheduled cycles"] < total["baseline cycles"],
        "scheduling: no TOTAL row saving cycles",
    )
    for row in rows:
        _claim(row["scheduled cycles"] <= row["baseline cycles"],
               f"scheduling: {row['layer']} costs cycles")


def _llm_claims(record, rows):
    by = _by(rows, "weight precision")
    int8, int4, int2 = (by[f"INT{width} weights"] for width in (8, 4, 2))
    _claim(int2["tub cycles"] == int2["binary cycles"],
           "llm: INT2 tub cycles differ from binary's")
    _claim(int4["tub cycles"] < int8["tub cycles"],
           "llm: INT4 tub cycles not below INT8's")
    _claim(int4["tub cycles"] <= 4 * int4["binary cycles"],
           "llm: INT4 slowdown above 4x")


#: Experiment id -> its shape claims.  Every id must appear in a paper
#: artifact exactly once.
PAPER_CLAIMS = {
    "fig1": _fig1_claims,
    "table1": _table1_claims,
    "fig2": _fig2_claims,
    "fig3": _fig3_claims,
    "table2": _table2_claims,
    "fig4": _fig4_claims,
    "fig5": _fig5_claims,
    "fig6": _fig6_claims,
    "table3": _table3_claims,
    "fig7": _fig7_claims,
    "fig8": _fig8_claims,
    "secVC": _secvc_claims,
    "secVD": _secvd_claims,
    "fig9": _fig9_claims,
    "gemm": _gemm_claims,
    "ablation": _ablation_claims,
    "tilesize": _tilesize_claims,
    "scheduling": _scheduling_claims,
    "llm": _llm_claims,
}


def _paper_records(payload: dict) -> list:
    # The paper's experiments run the gate, P&R and profiling models,
    # not a compute backend, and most have no simulated cycle total:
    # each normalizes to one record named by its experiment id on the
    # "paper" backend, with no precision and zero cycles.
    experiments = payload["experiments"]
    ids = [record["id"] for record in experiments]
    _claim(sorted(ids) == sorted(PAPER_CLAIMS),
           "paper: the experiments are not each recorded once")
    records = []
    for record in experiments:
        for comparison in record["comparisons"]:
            paper, measured = comparison["paper"], comparison["measured"]
            _claim(
                comparison["ratio"]
                == (measured / paper if paper else None),
                f"{record['id']}: the {comparison['metric']} ratio is "
                "not measured/paper",
            )
        PAPER_CLAIMS[record["id"]](record, _table(record))
        records.append(_record(record["id"], "paper", "-", 0))
    return records


def _engine_speed_records(payload: list) -> list:
    # Pre-schema trajectory entries carry the layer geometry but no
    # explicit net/backend/precision; the microbenchmark has always
    # timed one fixed INT8 layer on the tempus engine.
    return [
        _record(
            entry.get("net", "microbench_layer"),
            entry.get("backend", "tempus"),
            entry.get("precision", "int8"),
            entry["simulated_cycles"],
        )
        for entry in payload
    ]


#: Artifact name -> normalizer.  New benchmark artifacts must register
#: here (the directory check refuses unknown BENCH files).
NORMALIZERS = {
    "BENCH_serving.json": _serving_records,
    "BENCH_backends.json": _backend_records,
    "BENCH_engine.json": _engine_speed_records,
    "BENCH_llm.json": _llm_records,
    "BENCH_pareto.json": _pareto_records,
    "BENCH_paper.json": _paper_records,
}


def normalize_records(name: str, payload) -> list:
    """Flatten one artifact's payload into common benchmark records.

    Args:
        name: artifact file name (e.g. ``"BENCH_backends.json"``).
        payload: the parsed JSON document.

    Raises:
        DataflowError: unknown artifact name, or a record missing any
            of :data:`COMMON_FIELDS`.
    """
    normalizer = NORMALIZERS.get(name)
    if normalizer is None:
        raise DataflowError(
            f"unknown benchmark artifact {name!r}; register a "
            "normalizer in repro.eval.results_schema.NORMALIZERS"
        )
    try:
        records = normalizer(payload)
    except (KeyError, TypeError, AttributeError, ValueError) as error:
        raise DataflowError(
            f"{name}: payload does not match the expected layout "
            f"({error!r})"
        ) from error
    if not records:
        raise DataflowError(f"{name}: artifact carries no records")
    return records


def check_results_dir(path: "str | Path" = "results") -> dict:
    """Validate every ``BENCH_*.json`` under ``path``.

    Returns ``{artifact name: normalized records}``; raises
    :class:`DataflowError` on the first malformed artifact.
    """
    directory = Path(path)
    if not directory.is_dir():
        raise DataflowError(f"results directory {path!r} does not exist")
    artifacts = sorted(directory.glob("BENCH_*.json"))
    if not artifacts:
        raise DataflowError(f"no BENCH_*.json artifacts under {path!r}")
    checked = {}
    for artifact in artifacts:
        try:
            payload = json.loads(artifact.read_text())
        except json.JSONDecodeError as error:
            raise DataflowError(
                f"{artifact.name}: not valid JSON ({error})"
            ) from error
        checked[artifact.name] = normalize_records(artifact.name, payload)
    return checked


def render_check(checked: dict) -> str:
    """One summary line per artifact."""
    lines = []
    for name, records in checked.items():
        backends = sorted({record["backend"] for record in records})
        lines.append(
            f"{name}: {len(records)} records ok "
            f"(backends: {', '.join(backends)})"
        )
    return "\n".join(lines)
