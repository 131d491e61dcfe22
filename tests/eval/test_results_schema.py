"""Tests for the BENCH_*.json results-schema checker."""

import json
from pathlib import Path

import pytest

from repro.errors import DataflowError
from repro.eval.results_schema import (
    COMMON_FIELDS,
    check_results_dir,
    normalize_records,
    render_check,
)

REPO_RESULTS = Path(__file__).resolve().parents[2] / "results"


class TestNormalizers:
    def test_serving_transport_validates(self):
        payload = {
            "engine": "tempus",
            "transport": "shm",
            "models": [
                {
                    "model": "resnet18",
                    "workers": [
                        {
                            "workers": 1,
                            "conv_cycles": 9,
                            "requests_per_second": 5.0,
                            "bit_identical_to_reference": True,
                        }
                    ],
                    "faulted": [
                        {
                            "workers": 1,
                            "fault_rate": 0.1,
                            "conv_cycles": 9,
                            "completed": True,
                            "bit_identical_to_reference": True,
                            "recovered": True,
                        }
                    ],
                    "requests_per_second_monotonic": True,
                }
            ],
        }
        assert len(normalize_records("BENCH_serving.json", payload)) == 2

    def test_serving_unknown_transport_rejected(self):
        payload = {
            "transport": "carrier-pigeon",
            "models": [
                {
                    "model": "resnet18",
                    "workers": [{"conv_cycles": 9}],
                }
            ],
        }
        with pytest.raises(DataflowError, match="transport"):
            normalize_records("BENCH_serving.json", payload)

    def test_backend_payload(self):
        payload = {
            "models": [
                {
                    "model": "resnet18",
                    "precisions": [
                        {
                            "net": "resnet18",
                            "precision": "int2",
                            "outputs_bit_identical": True,
                            "backends": {
                                "tubgemm": {
                                    "conv_cycles": 7,
                                    "energy": {"pj_per_image": 3.0},
                                    "temporal": True,
                                },
                            },
                        }
                    ],
                }
            ]
        }
        records = normalize_records("BENCH_backends.json", payload)
        assert records == [
            {
                "net": "resnet18",
                "backend": "tubgemm",
                "precision": "int2",
                "cycles": 7,
            }
        ]

    def test_engine_trajectory_defaults(self):
        payload = [{"layer": {}, "simulated_cycles": 5}]
        records = normalize_records("BENCH_engine.json", payload)
        assert records[0]["backend"] == "tempus"
        assert records[0]["net"] == "microbench_layer"

    def test_pareto_payload(self):
        point = {
            "net": "mobilenet_v2",
            "backend": "tempus",
            "precision": "int4",
            "label": "tempus/int4/8x8",
            "cycles": 100,
            "cycles_per_image": 100.0,
            "pj_per_image": 50.0,
            "area_mm2": 0.1,
            "meets_slo": True,
        }
        payload = {
            "slo": {},
            "points": [point],
            "frontier": [point],
        }
        records = normalize_records("BENCH_pareto.json", payload)
        assert records == [
            {
                "net": "mobilenet_v2",
                "backend": "tempus",
                "precision": "int4",
                "cycles": 100,
            }
        ]

    def _pareto_payload(self, frontier_overrides=None):
        def point(label, cycles, pj, mm2, meets_slo=True):
            return {
                "net": "mobilenet_v2",
                "backend": "tempus",
                "precision": "int8",
                "label": label,
                "cycles": int(cycles),
                "cycles_per_image": cycles,
                "pj_per_image": pj,
                "area_mm2": mm2,
                "meets_slo": meets_slo,
            }

        points = [
            point("fast", 10.0, 90.0, 1.0),
            point("small", 90.0, 10.0, 0.1),
        ]
        frontier = list(points)
        if frontier_overrides:
            frontier += [point(**kw) for kw in frontier_overrides]
            points += [point(**kw) for kw in frontier_overrides]
        return {"slo": {}, "points": points, "frontier": frontier}

    def test_pareto_empty_frontier_rejected(self):
        payload = self._pareto_payload()
        payload["frontier"] = []
        with pytest.raises(DataflowError, match="empty frontier"):
            normalize_records("BENCH_pareto.json", payload)

    def test_pareto_dominated_frontier_point_rejected(self):
        payload = self._pareto_payload(
            [dict(label="worse", cycles=95.0, pj=15.0, mm2=0.2)]
        )
        with pytest.raises(DataflowError, match="dominated"):
            normalize_records("BENCH_pareto.json", payload)

    def test_pareto_slo_violating_frontier_point_rejected(self):
        payload = self._pareto_payload(
            [
                dict(
                    label="late", cycles=5.0, pj=95.0, mm2=2.0,
                    meets_slo=False,
                )
            ]
        )
        with pytest.raises(DataflowError, match="violates"):
            normalize_records("BENCH_pareto.json", payload)

    def test_pareto_frontier_outside_explored_rejected(self):
        payload = self._pareto_payload()
        payload["points"] = payload["points"][:1]
        with pytest.raises(
            DataflowError, match="not among the explored"
        ):
            normalize_records("BENCH_pareto.json", payload)

    def test_unknown_artifact_rejected(self):
        with pytest.raises(DataflowError):
            normalize_records("BENCH_mystery.json", {})

    def test_malformed_payload_rejected(self):
        with pytest.raises(DataflowError):
            normalize_records("BENCH_backends.json", {"models": [{}]})

    def test_empty_payload_rejected(self):
        with pytest.raises(DataflowError):
            normalize_records("BENCH_backends.json", {"models": []})


def _set(path, value):
    """A mutation writing ``value`` at a key/index path."""

    def mutate(payload):
        target = payload
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value

    return mutate


def _tubgemm_not_below(payload):
    backends = payload["models"][0]["precisions"][0]["backends"]
    backends["tubgemm"]["conv_cycles"] = backends["tugemm"]["conv_cycles"]


def _binary_cycles_vary(payload):
    # The mixed profile (last entry) must sit on the same flat line.
    stats = payload["models"][0]["precisions"][-1]["backends"]["binary"]
    stats["conv_cycles"] += 1


def _tugemm_int2_not_below_int4(payload):
    # Binary cycles stay flat, so this breaks tuGEMM's ratio only.
    entries = payload["models"][2]["precisions"]
    int4, int2 = entries[1]["backends"], entries[2]["backends"]
    int2["tugemm"]["conv_cycles"] = int4["tugemm"]["conv_cycles"]


def _slower_with_more_workers(payload):
    # The flag still claims monotonic; the records contradict it.
    points = payload["models"][1]["workers"]
    points[2]["requests_per_second"] = points[1]["requests_per_second"] / 2


#: (artifact, mutation violating one claim, expected message).
CLAIM_VIOLATIONS = {
    "backends-bit-identity": (
        "BENCH_backends.json",
        _set(["models", 0, "precisions", 3, "outputs_bit_identical"],
             False),
        "backend outputs differ",
    ),
    "backends-scheduling": (
        "BENCH_backends.json",
        _set(["models", 1, "precisions", 0, "scheduling_speedup"], 0.99),
        "scheduling costs tempus cycles",
    ),
    "backends-ratio-falls": (
        "BENCH_backends.json",
        _tugemm_int2_not_below_int4,
        "the tugemm:binary cycle ratio does not fall",
    ),
    "backends-tubgemm-below-tugemm": (
        "BENCH_backends.json",
        _tubgemm_not_below,
        "tubGEMM cycles not below",
    ),
    "backends-binary-flat": (
        "BENCH_backends.json",
        _binary_cycles_vary,
        "binary cycles vary",
    ),
    "backends-energy": (
        "BENCH_backends.json",
        _set(
            [
                "models", 1, "precisions", 2, "backends", "tempus",
                "energy", "pj_per_image",
            ],
            0.0,
        ),
        "no pJ/image",
    ),
    "serving-bit-identity": (
        "BENCH_serving.json",
        _set(["models", 0, "workers", 2, "bit_identical_to_reference"],
             False),
        "diverged from the reference",
    ),
    "serving-monotonic": (
        "BENCH_serving.json",
        _set(["models", 0, "requests_per_second_monotonic"], False),
        "does not rise with the worker count",
    ),
    "serving-monotonic-records": (
        "BENCH_serving.json",
        _slower_with_more_workers,
        "does not rise with the worker count",
    ),
    "serving-faulted-completed": (
        "BENCH_serving.json",
        _set(["models", 0, "faulted", 1, "completed"], False),
        "fault rate 0.25: a stream did not complete",
    ),
    "serving-faulted-bit-identity": (
        "BENCH_serving.json",
        _set(["models", 2, "faulted", 4,
              "bit_identical_to_reference"], False),
        "fault rate 0.1 diverged from the reference",
    ),
    "serving-faulted-recovered": (
        "BENCH_serving.json",
        _set(["models", 1, "faulted", 3, "recovered"], False),
        "fault rate 0.25: no restart, redispatch or retry",
    ),
    "llm-bit-identity": (
        "BENCH_llm.json",
        _set(["records", 0, "bit_identical"], False),
        "bit_identical is false",
    ),
    "llm-sharded": (
        "BENCH_llm.json",
        _set(["records", 5, "sharded_bit_identical"], False),
        "sharded_bit_identical is false",
    ),
    "llm-matvec-parity": (
        "BENCH_llm.json",
        _set(["records", 11, "matvec_parity"], False),
        "matvec_parity is false",
    ),
}


class TestClaimChecks:
    @pytest.mark.parametrize("violation", sorted(CLAIM_VIOLATIONS))
    def test_violated_claim_rejected(self, violation):
        """Each committed artifact passes; the same payload with one
        claim broken is refused."""
        name, mutate, message = CLAIM_VIOLATIONS[violation]
        payload = json.loads((REPO_RESULTS / name).read_text())
        assert normalize_records(name, payload)
        mutate(payload)
        with pytest.raises(DataflowError, match=message):
            normalize_records(name, payload)


class TestDirectoryCheck:
    def test_repo_artifacts_all_validate(self):
        """Every artifact this repo ships parses and normalizes to the
        common record fields — the CI contract."""
        checked = check_results_dir(REPO_RESULTS)
        assert "BENCH_pareto.json" in checked
        assert "BENCH_backends.json" in checked
        for records in checked.values():
            for record in records:
                assert set(COMMON_FIELDS) <= set(record)
                assert record["cycles"] >= 0
        text = render_check(checked)
        assert "BENCH_backends.json" in text

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(DataflowError):
            check_results_dir(tmp_path / "nope")

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(DataflowError):
            check_results_dir(tmp_path)

    def test_invalid_json_rejected(self, tmp_path):
        (tmp_path / "BENCH_backends.json").write_text("{not json")
        with pytest.raises(DataflowError):
            check_results_dir(tmp_path)

    def test_unknown_bench_file_rejected(self, tmp_path):
        (tmp_path / "BENCH_mystery.json").write_text("{}")
        with pytest.raises(DataflowError):
            check_results_dir(tmp_path)

    def test_wrong_container_types_rejected_cleanly(self, tmp_path):
        """Shape confusion (dict where a list belongs and vice versa)
        surfaces as the uniform DataflowError, not a raw traceback."""
        with pytest.raises(DataflowError):
            normalize_records("BENCH_engine.json", {"not": "a list"})
        with pytest.raises(DataflowError):
            normalize_records(
                "BENCH_backends.json",
                {"models": [{"model": "x", "precisions": {"oops": 1}}]},
            )

    def test_non_numeric_cycles_rejected_cleanly(self):
        payload = {
            "models": [
                {
                    "model": "x",
                    "precisions": [
                        {
                            "net": "x",
                            "precision": "int8",
                            "outputs_bit_identical": True,
                            "backends": {
                                "binary": {"conv_cycles": "NaN"}
                            },
                        }
                    ],
                }
            ]
        }
        with pytest.raises(DataflowError):
            normalize_records("BENCH_backends.json", payload)
