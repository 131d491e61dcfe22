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
(bit-identity flags, orderings such as tubGEMM cycles below tuGEMM's),
so a regenerated artifact that breaks one fails the check.
``python -m repro check-results [dir]`` runs :func:`check_results_dir`.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import DataflowError
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
