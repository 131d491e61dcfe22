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
    def test_serving_sweep_and_faulted_points_normalize(self):
        payload = {
            "engine": "tempus",
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


def _experiment(payload, experiment_id):
    return next(
        record for record in payload["experiments"]
        if record["id"] == experiment_id
    )


def _cell(experiment_id, row, column, value):
    """A mutation writing one cell of a paper table (column by
    header)."""

    def mutate(payload):
        record = _experiment(payload, experiment_id)
        record["rows"][row][record["headers"].index(column)] = value

    return mutate


def _column(experiment_id, column, value):
    def mutate(payload):
        record = _experiment(payload, experiment_id)
        for row in record["rows"]:
            row[record["headers"].index(column)] = value

    return mutate


def _field(experiment_id, path, value):
    def mutate(payload):
        _set(path, value)(_experiment(payload, experiment_id))

    return mutate


def _measured(experiment_id, index, value):
    """A comparison's measured value, with its ratio kept consistent."""

    def mutate(payload):
        comparison = _experiment(payload, experiment_id)["comparisons"][
            index
        ]
        comparison["measured"] = value
        comparison["ratio"] = value / comparison["paper"]

    return mutate


def _drop_grid_entry(experiment_id, axis):
    def mutate(payload):
        _experiment(payload, experiment_id)["grid"][axis].pop()

    return mutate


def _drop_series(experiment_id, name):
    def mutate(payload):
        del _experiment(payload, experiment_id)["series"][name]

    return mutate


def _drop_experiment(experiment_id):
    def mutate(payload):
        payload["experiments"].remove(_experiment(payload, experiment_id))

    return mutate


#: One break-one case per claim check of BENCH_paper.json:
#: (name, mutation, expected message).
PAPER_VIOLATIONS = (
    ("experiments", _drop_experiment("llm"),
     "experiments are not each recorded once"),
    ("ratio", _field("secVD", ["comparisons", 0, "ratio"], 1.0),
     "INT8 iso-area throughput ratio is not measured/paper"),
    ("fig1-fp32", _cell("fig1", 0, "accuracy %", 80.0),
     "fig1: the FP32 substrate stays at or below 80%"),
    ("fig1-int8", _cell("fig1", 1, "drop vs FP32", 2.0),
     "fig1: INT8 loses 2 points"),
    ("fig1-int4", _cell("fig1", 4, "drop vs FP32", 5.0),
     "fig1: INT4 loses 5 points"),
    ("fig1-cliff", _cell("fig1", 6, "drop vs FP32", 1.0),
     "fig1: no accuracy cliff below INT4"),
    ("table1-rows", _drop_grid_entry("table1", "nets"),
     "table1: not one row per recorded net"),
    ("table1-sparsity", _measured("table1", 4, 2.18),
     "table1: ShuffleNetV3 word sparsity is 0.75 points or more off"),
    ("fig2-exact", _cell("fig2", 1, "exact", "NO"),
     "fig2: a tub product is not exact"),
    ("fig3-bit-exact", _field("fig3", ["notes", 0],
                              "outputs bit-exact: False"),
     "fig3: Tempus Core outputs differ"),
    ("fig3-cycles", _cell("fig3", 1, "cycles", 901 * 65 + 1),
     "fig3: tempus cycles not above binary's and within 65x"),
    ("table2-rows", _drop_grid_entry("table2", "n"),
     "table2: not one row per recorded precision x n"),
    ("table2-area", _cell("table2", 2, "tub area mm2", 0.2244),
     "table2: tub area not below binary at INT4 n=1024"),
    ("table2-power", _cell("table2", 4, "tub power mW", 9.772),
     "table2: tub power not below binary at INT8 n=256"),
    ("table2-int8-over-int4", _cell("table2", 5, "area red %", 44.1),
     "table2: the INT8 area advantage does not exceed INT4's"),
    ("fig4-area", _cell("fig4", 1, "area red %", 30.0),
     "fig4: INT4 area reduction at or below 30%"),
    ("fig4-power", _cell("fig4", 0, "power red %", 30.0),
     "fig4: INT8 power reduction at or below 30%"),
    ("fig4-int8-over-int4", _cell("fig4", 1, "area red %", 67.8),
     "fig4: the INT8 area advantage does not exceed INT4's"),
    ("fig5-rows", _drop_grid_entry("fig5", "precisions"),
     "fig5: not one row per recorded precision x width"),
    ("fig5-area", _cell("fig5", 0, "pcu area mm2", 0.0053),
     "fig5: PCU area not below the CMAC's at INT2 16x4"),
    ("fig5-power", _cell("fig5", 8, "power red %", 0.0),
     "fig5: PCU power not below the CMAC's at INT8 16x32"),
    ("fig5-grows-with-n", _cell("fig5", 5, "pcu area mm2", 0.029),
     "fig5: INT4 PCU area does not grow with n"),
    ("fig6-die", _cell("fig6", 1, "die mm2", 0.0184),
     "fig6: the PCU die is not smaller"),
    ("fig6-utilization", _cell("fig6", 0, "utilization", 0.72),
     "fig6: CMAC misses 70% utilization"),
    ("fig6-maps", _drop_series("fig6", "pcu_density"),
     "fig6: expected square CMAC and PCU density maps"),
    ("table3-area", _measured("table3", 0, 25.0),
     "table3: P&R area reduction at or below 25%"),
    ("table3-power", _measured("table3", 1, 22.0),
     "table3: P&R power reduction at or below 22%"),
    ("table3-timing", _field("table3", ["notes", 0], "timing violated"),
     "table3: timing not met"),
    ("fig7-below-worst", _cell("fig7", 0, "mean burst cycles", 48.0),
     "fig7: MobileNetV2 mean burst not below 75% of the worst case"),
    ("fig7-above-five", _cell("fig7", 1, "mean burst cycles", 5.0),
     "fig7: ResNeXt101 mean burst at or below 5 cycles"),
    ("fig7-paper", _measured("fig7", 1, 31 * 1.34),
     "fig7: ResNeXt101 mean burst cycles not within 1.33x"),
    ("fig8-silent", _cell("fig8", 0, "mean silent PEs", 0.0),
     r"fig8: MobileNetV2 silent PEs outside \(0, 16\)"),
    ("fig8-active", _cell("fig8", 1, "mean active PEs", 240.0),
     "fig8: ResNeXt101 active PEs at or below 240"),
    ("fig8-sparsity-share", _cell("fig8", 0, "mean silent PEs", 7.1),
     "fig8: MobileNetV2 silent PEs above 1.2x"),
    ("secVC-gap", _cell("secVC", 3, "gap", 5.09),
     "secVC: the INT4 energy gap is not below a third of INT8's"),
    ("secVC-int8-energy", _cell("secVC", 1, "tub pJ", 38.68),
     "secVC: ResNeXt101 tub energy not above binary at INT8"),
    ("secVC-silent", _cell("secVC", 0, "tub pJ (silent-adj)", 280.35),
     "secVC: MobileNetV2 INT8 silent-PE adjustment raises energy"),
    ("secVD-int8", _cell("secVD", 0, "improvement", 1.5),
     "secVD: INT8 iso-area improvement at or below 1.5x"),
    ("secVD-int4", _cell("secVD", 1, "improvement", 1.2),
     "secVD: INT4 iso-area improvement at or below 1.2x"),
    ("secVD-int8-over-int4", _cell("secVD", 1, "improvement", 3.11),
     "secVD: the INT8 iso-area improvement does not exceed INT4's"),
    ("fig9-rows", _cell("fig9", 5, "", ""),
     "fig9: not one row per recorded precision x n"),
    ("fig9-measured", _cell("fig9", 10, "improvement", 1.0),
     "fig9: INT4 n=4096 improvement at or below 1x"),
    ("fig9-int8-over-int4", _cell("fig9", 2, "improvement", 1.73),
     "fig9: INT8 improvement does not exceed INT4's at n=256"),
    ("fig9-projection", _cell("fig9", 11, "improvement", 1.0),
     "fig9: INT4 projection at or below 1x"),
    ("gemm-exact", _cell("gemm", 5, "exact", "NO"),
     "gemm: a GEMM product is not exact"),
    ("gemm-latency-order", _cell("gemm", 2, "cycles", 172313),
     "gemm: INT8 latency is not binary < tubGEMM < tuGEMM"),
    ("ablation-halving", _cell("ablation", 1, "mean cycles", 30.8),
     "ablation: 2s-unary does not halve pure-unary bursts"),
    ("ablation-overhead", _cell("ablation", 5, "mean cycles", 36.0),
     "ablation: burst cycles do not rise with the overhead"),
    ("tilesize-grows", _cell("tilesize", 1, "mean burst cycles", 35.0),
     "tilesize: mean bursts do not grow with the tile size"),
    ("tilesize-worst", _cell("tilesize", 3, "worst case", 38),
     "tilesize: the largest tile's mean burst exceeds the worst case"),
    ("tilesize-spread", _column("tilesize", "mean burst cycles", 30.0),
     "tilesize: the smallest tile's mean burst is not below"),
    ("scheduling-total", _cell("scheduling", 6, "scheduled cycles",
                               169671712),
     "scheduling: no TOTAL row saving cycles"),
    ("scheduling-layer", _cell("scheduling", 0, "scheduled cycles",
                               264993),
     "scheduling: block5.project costs cycles"),
    ("llm-int2-parity", _cell("llm", 2, "tub cycles", 12545),
     "llm: INT2 tub cycles differ from binary's"),
    ("llm-int4-below-int8", _cell("llm", 1, "tub cycles", 500993),
     "llm: INT4 tub cycles not below INT8's"),
    ("llm-int4-slowdown", _cell("llm", 1, "tub cycles", 50177),
     "llm: INT4 slowdown above 4x"),
)

CLAIM_VIOLATIONS.update(
    (f"paper-{name}", ("BENCH_paper.json", mutate, message))
    for name, mutate, message in PAPER_VIOLATIONS
)


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
        assert "BENCH_paper.json" in checked
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
