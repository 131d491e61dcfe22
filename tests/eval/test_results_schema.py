"""Tests for the BENCH_*.json results-schema checker."""

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
    def test_network_payload(self):
        payload = {
            "precision_profile": "int4",
            "models": [
                {
                    "model": "resnet18",
                    "engines": {
                        "binary": {"conv_cycles": 10},
                        "tempus": {"conv_cycles": 20},
                    },
                }
            ],
        }
        records = normalize_records("BENCH_networks.json", payload)
        assert len(records) == 2
        for record in records:
            assert set(COMMON_FIELDS) <= set(record)
            assert record["net"] == "resnet18"
            assert record["precision"] == "int4"

    def test_serving_transport_validates(self):
        payload = {
            "engine": "tempus",
            "transport": "shm",
            "models": [
                {
                    "model": "resnet18",
                    "workers": [{"conv_cycles": 9}],
                }
            ],
        }
        assert normalize_records("BENCH_serving.json", payload)

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
                            "backends": {
                                "tubgemm": {"conv_cycles": 7},
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
            normalize_records("BENCH_networks.json", {"models": [{}]})

    def test_empty_payload_rejected(self):
        with pytest.raises(DataflowError):
            normalize_records("BENCH_networks.json", {"models": []})


class TestDirectoryCheck:
    def test_repo_artifacts_all_validate(self):
        """Every artifact this repo ships parses and normalizes to the
        common record fields — the CI contract."""
        checked = check_results_dir(REPO_RESULTS)
        assert "BENCH_networks.json" in checked
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
        (tmp_path / "BENCH_networks.json").write_text("{not json")
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
                "BENCH_networks.json",
                {"models": [{"model": "x", "engines": ["oops"]}]},
            )

    def test_non_numeric_cycles_rejected_cleanly(self):
        payload = {
            "models": [
                {
                    "model": "x",
                    "engines": {"binary": {"conv_cycles": "NaN"}},
                }
            ]
        }
        with pytest.raises(DataflowError):
            normalize_records("BENCH_networks.json", payload)
