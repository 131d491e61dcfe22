"""Tests for the network and serving benchmark drivers."""

import json
from dataclasses import replace

import pytest

from repro.errors import DataflowError
from repro.runtime.bench import (
    render_benchmark,
    render_precision_benchmark,
    render_serving_benchmark,
    run_network_benchmark,
    run_precision_benchmark,
    run_serving_benchmark,
)
from repro.tune.spec import (
    BACKENDS_SWEEP,
    NETWORKS_SWEEP,
    PRECISION_SWEEP,
    SERVING_SWEEP,
)


def small(spec, **axes):
    """A registered spec on a quick 4x4 array, with axes overridden."""
    return replace(spec, quick=True, geometries=("4x4",), **axes)


@pytest.fixture(scope="module")
def payload(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("bench")
    return run_network_benchmark(
        small(NETWORKS_SWEEP, batch=2), out_dir=out_dir
    )


class TestNetworkBenchmark:
    def test_artifact_written_and_parseable(self, payload):
        artifact = payload["artifact"]
        assert artifact.endswith("BENCH_networks.json")
        data = json.loads(open(artifact).read())
        assert data["benchmark"] == "network_inference"
        assert len(data["models"]) == 2

    def test_required_fields(self, payload):
        for record in payload["models"]:
            assert record["outputs_bit_identical"] is True
            assert record["scheduling_speedup"] >= 1.0
            assert record["tempus_vs_binary_throughput"] > 0
            for engine in ("tempus", "binary"):
                stats = record["engines"][engine]
                assert stats["conv_cycles"] > 0
                assert stats["images_per_million_cycles"] > 0

    def test_render_mentions_every_model(self, payload):
        text = render_benchmark(payload)
        assert "mobilenet_v2" in text and "resnet18" in text

    def test_unknown_model_rejected(self):
        with pytest.raises(DataflowError):
            run_network_benchmark(
                replace(NETWORKS_SWEEP, nets=("lenet",)), out_dir=None
            )

    def test_bad_batch_rejected(self):
        with pytest.raises(DataflowError):
            run_network_benchmark(
                replace(NETWORKS_SWEEP, batch=0), out_dir=None
            )

    def test_no_artifact_when_out_dir_none(self):
        result = run_network_benchmark(
            small(NETWORKS_SWEEP, nets=("resnet18",), batch=1),
            out_dir=None,
        )
        assert "artifact" not in result


@pytest.fixture(scope="module")
def precision_payload(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("precision")
    return run_precision_benchmark(
        small(
            PRECISION_SWEEP,
            nets=("resnet18", "shufflenet_v2"),
            precisions=("int8", "int4", "int2", "mixed"),
            batch=2,
        ),
        out_dir=out_dir,
    )


class TestPrecisionBenchmark:
    def test_artifact_written_and_parseable(self, precision_payload):
        artifact = precision_payload["artifact"]
        assert artifact.endswith("BENCH_precision.json")
        data = json.loads(open(artifact).read())
        assert data["benchmark"] == "precision_sweep"
        assert data["precisions"] == ["int8", "int4", "int2", "mixed"]

    def test_every_point_bit_identical(self, precision_payload):
        for record in precision_payload["models"]:
            assert len(record["precisions"]) == 4
            for entry in record["precisions"]:
                assert entry["outputs_bit_identical"] is True
                for engine in ("tempus", "binary"):
                    assert (
                        entry["engines"][engine]["conv_cycles"] > 0
                    )

    def test_ratio_improves_monotonically(self, precision_payload):
        """The load-bearing paper-family claim: the tempus:binary
        cycle ratio improves as precision drops, on every model."""
        for record in precision_payload["models"]:
            assert record["ratio_improves_monotonically"] is True
            by_name = {
                entry["precision"]: entry
                for entry in record["precisions"]
            }
            assert (
                by_name["int8"]["tempus_vs_binary_cycle_ratio"]
                > by_name["int4"]["tempus_vs_binary_cycle_ratio"]
                > by_name["int2"]["tempus_vs_binary_cycle_ratio"]
            )

    def test_binary_cycles_precision_independent(
        self, precision_payload
    ):
        for record in precision_payload["models"]:
            uniform = [
                entry["engines"]["binary"]["conv_cycles"]
                for entry in record["precisions"]
            ]
            assert len(set(uniform)) == 1

    def test_sharded_verification_recorded(self, precision_payload):
        verification = precision_payload["sharded_verification"]
        assert verification["precision"] == "int4"
        assert verification["bit_identical_outputs_and_cycles"] is True

    def test_render_mentions_profiles(self, precision_payload):
        text = render_precision_benchmark(precision_payload)
        assert "INT8/INT4/INT8" in text
        assert "tempus:binary" in text
        assert "sharded serving @ int4" in text

    def test_bad_inputs_rejected(self):
        for axes in (
            {"nets": ("lenet",)},
            {"batch": 0},
            {"precisions": ("int4", "INT4")},
            {"geometries": ("4x4", "8x8")},
        ):
            with pytest.raises(DataflowError):
                run_precision_benchmark(
                    replace(PRECISION_SWEEP, **axes), out_dir=None
                )

    def test_verify_profile_outside_sweep(self):
        """Regression: the sharded-verification profile (int4) need
        not appear in the swept precisions."""
        payload = run_precision_benchmark(
            small(
                PRECISION_SWEEP,
                nets=("resnet18",),
                precisions=("int8", "int2"),
                batch=1,
            ),
            out_dir=None,
        )
        verification = payload["sharded_verification"]
        assert verification["precision"] == "int4"
        assert verification["bit_identical_outputs_and_cycles"] is True


class TestPrecisionThroughDrivers:
    def test_network_benchmark_accepts_profile(self):
        payload = run_network_benchmark(
            small(
                NETWORKS_SWEEP,
                nets=("resnet18",),
                precisions=("mixed",),
                batch=1,
            ),
            out_dir=None,
        )
        assert payload["precision_profile"] == "mixed"
        assert payload["precision_layers"] == "INT8/INT4/INT8"
        assert payload["config"]["precision"] == "INT8"

    def test_serving_benchmark_accepts_profile(self):
        payload = run_serving_benchmark(
            small(
                SERVING_SWEEP,
                nets=("resnet18",),
                workers=(2,),
                precisions=("int4",),
                batch=4,
            ),
            max_batch=2,
            out_dir=None,
        )
        assert payload["precision_profile"] == "int4"
        assert payload["config"]["precision"] == "INT4"
        for record in payload["models"]:
            for sweep in record["workers"]:
                assert sweep["bit_identical_to_reference"] is True


@pytest.fixture(scope="module")
def serving_payload(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("serving")
    return run_serving_benchmark(
        small(
            SERVING_SWEEP, nets=("resnet18",), workers=(1, 2), batch=4
        ),
        max_batch=2,
        out_dir=out_dir,
    )


class TestServingBenchmark:
    def test_artifact_written_and_parseable(self, serving_payload):
        artifact = serving_payload["artifact"]
        assert artifact.endswith("BENCH_serving.json")
        data = json.loads(open(artifact).read())
        assert data["benchmark"] == "sharded_serving"
        assert data["worker_counts"] == [1, 2]

    def test_every_point_bit_identical_and_timed(self, serving_payload):
        for record in serving_payload["models"]:
            assert record["reference_conv_cycles"] > 0
            assert len(record["workers"]) == 2
            for sweep in record["workers"]:
                assert sweep["bit_identical_to_reference"] is True
                assert sweep["requests_per_second"] > 0
                assert sweep["makespan_cycles"] > 0
                assert sum(sweep["shard_cycles"]) == sweep["conv_cycles"]

    def test_simulated_throughput_scales_with_workers(
        self, serving_payload
    ):
        """Two balanced shards halve the makespan: the load-bearing
        scaling claim, deterministic because it is cycle-derived."""
        for record in serving_payload["models"]:
            one, two = record["workers"]
            assert two["makespan_cycles"] < one["makespan_cycles"]
            assert (
                two["requests_per_second"] > one["requests_per_second"]
            )
            assert record["requests_per_second_monotonic"] is True

    def test_render_mentions_workers(self, serving_payload):
        text = render_serving_benchmark(serving_payload)
        assert "resnet18" in text
        assert "workers" in text and "req/s (sim)" in text

    def test_bad_inputs_rejected(self):
        for axes in (
            {"nets": ("lenet",)},
            {"batch": 0},
            {"workers": (0,)},
            {"workers": ()},
            {"backends": ("tempus", "binary")},
        ):
            with pytest.raises(DataflowError):
                run_serving_benchmark(
                    replace(SERVING_SWEEP, **axes), out_dir=None
                )


class TestBackendBenchmark:
    @pytest.fixture(scope="class")
    def backend_payload(self, tmp_path_factory):
        from repro.runtime.bench import run_backend_benchmark

        out_dir = tmp_path_factory.mktemp("backend-bench")
        return run_backend_benchmark(
            small(BACKENDS_SWEEP, batch=2), out_dir=out_dir
        )

    def test_artifact_written_and_parseable(self, backend_payload):
        artifact = backend_payload["artifact"]
        assert artifact.endswith("BENCH_backends.json")
        data = json.loads(open(artifact).read())
        assert data["benchmark"] == "backend_sweep"
        assert len(data["models"]) == 3
        assert set(data["backends"]) == {
            "binary",
            "tempus",
            "tugemm",
            "tubgemm",
        }

    def test_records_carry_cycles_and_energy(self, backend_payload):
        """The artifact contract: cycles + pJ/image for every (net,
        backend, precision) point, bit-identical outputs, tubGEMM
        strictly below tuGEMM."""
        for record in backend_payload["models"]:
            assert len(record["precisions"]) == 3
            for entry in record["precisions"]:
                assert entry["outputs_bit_identical"]
                assert entry["tubgemm_below_tugemm"]
                for stats in entry["backends"].values():
                    assert stats["conv_cycles"] > 0
                    assert stats["energy"]["pj_per_image"] > 0
                    assert stats["energy"]["clock_mhz"] > 0
                assert entry["burst_energy"]["energy_gap"] > 0

    def test_temporal_ratio_improves_as_precision_drops(
        self, backend_payload
    ):
        for record in backend_payload["models"]:
            by_precision = {
                entry["precision"]: entry
                for entry in record["precisions"]
            }
            for backend in ("tempus", "tubgemm", "tugemm"):
                ratios = [
                    by_precision[p]["vs_binary_cycles"][backend]
                    for p in ("int8", "int4", "int2")
                ]
                assert ratios[0] > ratios[1] > ratios[2], (
                    backend,
                    ratios,
                )

    def test_energy_flat_for_binary_dropping_for_temporal(
        self, backend_payload
    ):
        for record in backend_payload["models"]:
            entries = {
                entry["precision"]: entry
                for entry in record["precisions"]
            }
            binary_pj = {
                entries[p]["backends"]["binary"]["energy"]["pj_per_image"]
                for p in ("int8", "int4", "int2")
            }
            assert len(binary_pj) == 1
            tempus_pj = [
                entries[p]["backends"]["tempus"]["energy"]["pj_per_image"]
                for p in ("int8", "int4", "int2")
            ]
            assert tempus_pj[0] > tempus_pj[1] > tempus_pj[2]

    def test_render_mentions_every_backend(self, backend_payload):
        from repro.runtime.bench import render_backend_benchmark

        text = render_backend_benchmark(backend_payload)
        for backend in ("binary", "tempus", "tugemm", "tubgemm"):
            assert backend in text
        assert "pJ/image" in text

    def test_duplicate_backends_rejected(self):
        from repro.runtime.bench import run_backend_benchmark

        with pytest.raises(DataflowError):
            run_backend_benchmark(
                replace(BACKENDS_SWEEP, backends=("binary", "BINARY")),
                out_dir=None,
            )

    def test_empty_backends_rejected(self):
        from repro.runtime.bench import run_backend_benchmark

        with pytest.raises(DataflowError):
            run_backend_benchmark(
                replace(BACKENDS_SWEEP, backends=()), out_dir=None
            )


class TestEnergyInDrivers:
    def test_network_benchmark_records_energy(self):
        payload = run_network_benchmark(
            small(NETWORKS_SWEEP, nets=("resnet18",), batch=1),
            out_dir=None,
        )
        record = payload["models"][0]
        for engine in ("tempus", "binary"):
            energy = record["engines"][engine]["energy"]
            assert energy["pj_per_image"] > 0
            assert energy["deployed_precision"] == "INT8"
        assert record["tempus_vs_binary_energy"] > 0
