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
``python -m repro check-results [dir]`` runs :func:`check_results_dir`.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import DataflowError

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


def _check_disk_cache(totals: dict) -> None:
    for key in ("disk_hits", "disk_misses", "disk_writes"):
        if int(totals[key]) < 0:
            raise DataflowError(
                f"disk_cache_totals: negative counter {key}"
            )


def _check_cache(point: str, stats: dict) -> None:
    """An engine record's burst-map ``hit_rate`` is a fraction, or null
    when the run made no lookups (a rate over nothing is undefined)."""
    cache = stats.get("cache")
    if cache is None:
        return
    rate = cache["hit_rate"]
    lookups = int(cache["hits"]) + int(cache["misses"])
    if rate is None:
        if lookups:
            raise DataflowError(
                f"{point}: cache hit_rate is null over {lookups} "
                "burst-map lookups"
            )
    elif not 0.0 <= float(rate) <= 1.0:
        raise DataflowError(
            f"{point}: cache hit_rate {rate} is not a fraction"
        )


def _network_records(payload: dict) -> list:
    precision = payload.get("precision_profile", "int8")
    records = []
    for model in payload["models"]:
        for backend, stats in model["engines"].items():
            _check_cache(f"{model['model']}/{backend}", stats)
            records.append(
                _record(
                    model["model"], backend, precision,
                    stats["conv_cycles"],
                )
            )
    return records


def _serving_records(payload: dict) -> list:
    precision = payload.get("precision_profile", "int8")
    backend = payload.get("engine", "tempus")
    transport = payload.get("transport", "pickle")
    if transport not in ("pickle", "shm"):
        raise DataflowError(
            f"serving payload carries unknown transport {transport!r}"
        )
    if "disk_cache_totals" in payload:
        _check_disk_cache(payload["disk_cache_totals"])
    records = []
    for model in payload["models"]:
        for sweep in model["workers"]:
            _check_cache(
                f"{model['model']}/{sweep.get('workers')}w", sweep
            )
            records.append(
                _record(
                    model["model"], backend, precision,
                    sweep["conv_cycles"],
                )
            )
    return records


def _precision_records(payload: dict) -> list:
    records = []
    for model in payload["models"]:
        for entry in model["precisions"]:
            for backend, stats in entry["engines"].items():
                _check_cache(
                    f"{model['model']}/{backend}/{entry['precision']}",
                    stats,
                )
                records.append(
                    _record(
                        model["model"], backend, entry["precision"],
                        stats["conv_cycles"],
                    )
                )
    return records


def _backend_records(payload: dict) -> list:
    records = []
    for model in payload["models"]:
        for entry in model["precisions"]:
            for backend, stats in entry["backends"].items():
                _check_cache(
                    f"{entry['net']}/{backend}/{entry['precision']}",
                    stats,
                )
                records.append(
                    _record(
                        entry["net"], backend, entry["precision"],
                        stats["conv_cycles"],
                    )
                )
    return records


def _fault_records(payload: dict) -> list:
    backend = payload.get("engine", "tempus")
    precision = payload.get("precision_profile", "int8")
    records = []
    for model in payload["models"]:
        for point in model["points"]:
            if not point["completed"]:
                raise DataflowError(
                    f"fault-tolerance record for {model['model']} at "
                    f"rate {point['fault_rate']} reports an aborted "
                    "stream"
                )
            records.append(
                _record(
                    model["model"], backend, precision,
                    point["conv_cycles"],
                )
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
            if not entry[flag]:
                raise DataflowError(
                    f"llm record {entry['backend']}/"
                    f"{entry['precision']}: {flag} is false"
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
    "BENCH_networks.json": _network_records,
    "BENCH_serving.json": _serving_records,
    "BENCH_precision.json": _precision_records,
    "BENCH_backends.json": _backend_records,
    "BENCH_engine.json": _engine_speed_records,
    "BENCH_llm.json": _llm_records,
    "BENCH_faults.json": _fault_records,
    "BENCH_pareto.json": _pareto_records,
}


def normalize_records(name: str, payload) -> list:
    """Flatten one artifact's payload into common benchmark records.

    Args:
        name: artifact file name (e.g. ``"BENCH_networks.json"``).
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
