"""Tests for the CNN (backends) and serving benchmark drivers."""

import json
from dataclasses import replace

import pytest

from repro.errors import DataflowError
from repro.runtime.bench import (
    MAX_BATCH,
    render_backend_benchmark,
    render_serving_benchmark,
    run_backend_benchmark,
    run_serving_benchmark,
)
from repro.tune.spec import BACKENDS_SWEEP, SERVING_SWEEP


def small(spec, **axes):
    """A registered spec on a quick 4x4 array, with axes overridden."""
    return replace(spec, quick=True, geometries=("4x4",), **axes)


@pytest.fixture(scope="module")
def payload(tmp_path_factory):
    """The registered CNN sweep (3 nets x 4 backends x int8/int4/int2/
    mixed) on the quick 4x4 array."""
    out_dir = tmp_path_factory.mktemp("bench")
    return run_backend_benchmark(
        small(BACKENDS_SWEEP, batch=2), out_dir=out_dir
    )


def by_precision(record: dict) -> dict:
    return {entry["precision"]: entry for entry in record["precisions"]}


class TestNetworkBenchmark:
    """Per-network records of the CNN sweep: bit-identity, cycles,
    throughput and the tempus scheduling gain."""

    def test_artifact_written_and_parseable(self, payload):
        artifact = payload["artifact"]
        assert artifact.endswith("BENCH_backends.json")
        data = json.loads(open(artifact).read())
        assert [record["model"] for record in data["models"]] == [
            "mobilenet_v2", "resnet18", "shufflenet_v2",
        ]
        assert "scheduling" not in data

    def test_required_fields(self, payload):
        for record in payload["models"]:
            for entry in record["precisions"]:
                assert entry["outputs_bit_identical"] is True
                assert entry["scheduling_speedup"] >= 1.0
                for stats in entry["backends"].values():
                    assert stats["conv_cycles"] > 0
                    assert stats["images_per_million_cycles"] > 0

    def test_render_mentions_every_model(self, payload):
        text = render_backend_benchmark(payload)
        for model in ("mobilenet_v2", "resnet18", "shufflenet_v2"):
            assert model in text

    def test_unknown_model_rejected(self):
        with pytest.raises(DataflowError):
            run_backend_benchmark(
                replace(BACKENDS_SWEEP, nets=("lenet",)), out_dir=None
            )

    def test_bad_batch_rejected(self):
        with pytest.raises(DataflowError):
            run_backend_benchmark(
                replace(BACKENDS_SWEEP, batch=0), out_dir=None
            )

    def test_no_artifact_when_out_dir_none(self):
        result = run_backend_benchmark(
            small(
                BACKENDS_SWEEP,
                nets=("resnet18",),
                backends=("tempus",),
                precisions=("int8",),
                batch=1,
            ),
            out_dir=None,
        )
        assert "artifact" not in result
        # Without binary in the sweep there is no ratio to record,
        # but the tempus scheduling gain still is.
        entry = result["models"][0]["precisions"][0]
        assert "vs_binary_cycles" not in entry
        assert entry["scheduling_speedup"] >= 1.0


class TestPrecisionBenchmark:
    """The paper's scaling axis across the CNN sweep's precision
    profiles: temporal cycles fall with precision, binary stays
    flat."""

    def test_artifact_written_and_parseable(self, payload):
        data = json.loads(open(payload["artifact"]).read())
        assert data["benchmark"] == "backend_sweep"
        assert data["precisions"] == ["int8", "int4", "int2", "mixed"]

    def test_every_point_bit_identical(self, payload):
        for record in payload["models"]:
            assert len(record["precisions"]) == 4
            for entry in record["precisions"]:
                assert entry["outputs_bit_identical"] is True
                for stats in entry["backends"].values():
                    assert stats["reference_path_verified"] is True

    def test_ratio_improves_monotonically(self, payload):
        """The load-bearing paper-family claim: the tempus:binary
        cycle ratio improves as precision drops, on every model."""
        for record in payload["models"]:
            entries = by_precision(record)
            assert (
                entries["int8"]["tempus_vs_binary_cycle_ratio"]
                > entries["int4"]["tempus_vs_binary_cycle_ratio"]
                > entries["int2"]["tempus_vs_binary_cycle_ratio"]
            )

    def test_binary_cycles_precision_independent(self, payload):
        for record in payload["models"]:
            cycles = {
                entry["backends"]["binary"]["conv_cycles"]
                for entry in record["precisions"]
            }
            assert len(cycles) == 1

    def test_render_mentions_profiles(self, payload):
        text = render_backend_benchmark(payload)
        assert "INT8/INT4/INT8" in text
        assert "cycles vs binary" in text

    def test_bad_inputs_rejected(self):
        for axes in (
            {"nets": ("lenet",)},
            {"batch": 0},
            {"precisions": ("int4", "INT4")},
            {"geometries": ("4x4", "8x8")},
        ):
            with pytest.raises(DataflowError):
                run_backend_benchmark(
                    replace(BACKENDS_SWEEP, **axes), out_dir=None
                )


class TestPrecisionThroughDrivers:
    def test_network_benchmark_accepts_profile(self):
        payload = run_backend_benchmark(
            small(
                BACKENDS_SWEEP,
                nets=("resnet18",),
                backends=("binary", "tempus"),
                precisions=("mixed",),
                batch=1,
            ),
            out_dir=None,
        )
        (entry,) = payload["models"][0]["precisions"]
        assert payload["precisions"] == ["mixed"]
        assert entry["layers"] == "INT8/INT4/INT8"
        assert entry["tempus_vs_binary_cycle_ratio"] > 1.0

    def test_serving_benchmark_accepts_profile(self):
        payload = run_serving_benchmark(
            small(
                SERVING_SWEEP,
                nets=("resnet18",),
                workers=(2,),
                precisions=("int4",),
                batch=2 * MAX_BATCH,
            ),
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
            SERVING_SWEEP,
            nets=("resnet18",),
            workers=(1, 2),
            batch=2 * MAX_BATCH,
        ),
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

    def test_faulted_points_recover_bit_identical(self, serving_payload):
        """Every injected fault rate above 0 yields a stream that
        completes bit-identical, with the reference's cycle total and
        the fault-free job split."""
        for record in serving_payload["models"]:
            faulted = record["faulted"]
            assert [
                (point["workers"], point["fault_rate"])
                for point in faulted
            ] == [(1, 0.1), (1, 0.25), (2, 0.1), (2, 0.25)]
            for point in faulted:
                assert point["bit_identical_to_reference"] is True
                assert point["recovered"] is True
                assert point["completed"] is True
                assert (
                    point["conv_cycles"]
                    == record["reference_conv_cycles"]
                )
                assert point["jobs"] == 2

    def test_render_mentions_workers(self, serving_payload):
        text = render_serving_benchmark(serving_payload)
        assert "resnet18" in text
        assert "workers" in text and "req/s (sim)" in text
        assert "fault rate" in text and "recovered" in text

    def test_bad_inputs_rejected(self):
        for axes in (
            {"nets": ("lenet",)},
            {"batch": 0},
            {"workers": (0,)},
            {"workers": ()},
            {"backends": ("tempus", "binary")},
            {"batch": MAX_BATCH},
        ):
            with pytest.raises(DataflowError):
                run_serving_benchmark(
                    replace(SERVING_SWEEP, **axes), out_dir=None
                )


class TestBackendBenchmark:
    def test_artifact_written_and_parseable(self, payload):
        artifact = payload["artifact"]
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

    def test_records_carry_cycles_and_energy(self, payload):
        """The artifact contract: cycles + pJ/image for every (net,
        backend, precision) point, bit-identical outputs, tubGEMM
        strictly below tuGEMM."""
        for record in payload["models"]:
            assert len(record["precisions"]) == 4
            for entry in record["precisions"]:
                assert entry["outputs_bit_identical"]
                assert entry["tubgemm_below_tugemm"]
                for stats in entry["backends"].values():
                    assert stats["conv_cycles"] > 0
                    assert stats["energy"]["pj_per_image"] > 0
                    assert stats["energy"]["clock_mhz"] > 0
                assert entry["burst_energy"]["energy_gap"] > 0

    def test_temporal_ratio_improves_as_precision_drops(
        self, payload
    ):
        for record in payload["models"]:
            entries = by_precision(record)
            for backend in ("tempus", "tubgemm", "tugemm"):
                ratios = [
                    entries[p]["vs_binary_cycles"][backend]
                    for p in ("int8", "int4", "int2")
                ]
                assert ratios[0] > ratios[1] > ratios[2], (
                    backend,
                    ratios,
                )

    def test_energy_flat_for_binary_dropping_for_temporal(
        self, payload
    ):
        for record in payload["models"]:
            entries = by_precision(record)
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

    def test_render_mentions_every_backend(self, payload):
        text = render_backend_benchmark(payload)
        for backend in ("binary", "tempus", "tugemm", "tubgemm"):
            assert backend in text
        assert "pJ/image" in text

    def test_duplicate_backends_rejected(self):
        with pytest.raises(DataflowError):
            run_backend_benchmark(
                replace(BACKENDS_SWEEP, backends=("binary", "BINARY")),
                out_dir=None,
            )

    def test_empty_backends_rejected(self):
        with pytest.raises(DataflowError):
            run_backend_benchmark(
                replace(BACKENDS_SWEEP, backends=()), out_dir=None
            )


class TestEnergyInDrivers:
    def test_network_benchmark_records_energy(self, payload):
        for record in payload["models"]:
            for entry in record["precisions"]:
                for stats in entry["backends"].values():
                    energy = stats["energy"]
                    assert energy["pj_per_image"] > 0
                    assert energy["deployed_precision"] == "INT8"
                assert all(
                    ratio > 0
                    for ratio in entry["vs_binary_energy"].values()
                )
