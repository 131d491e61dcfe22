"""Before/after payload pinning for the refactored bench drivers.

The fixtures under ``tests/runtime/golden/`` were generated by the
pre-refactor drivers (each in a fresh process).  The refactored
spec-builder drivers must reproduce those payloads bit-identically in
every deterministic field; only host-timing fields (which depend on
the wall clock) are normalized out before comparison.  The serving
queue's depth high-watermark depends on thread timing too, so it is
range-checked instead of pinned.
"""

import json
from pathlib import Path

import pytest

from repro.nvdla.config import CoreConfig
from repro.runtime.bench import (
    run_backend_benchmark,
    run_network_benchmark,
    run_precision_benchmark,
    run_serving_benchmark,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Fields whose values depend on the host wall clock, not on the
#: benchmark's inputs.
VOLATILE_KEYS = {
    "wall_seconds",
    "host_images_per_second",
    "artifact",
}


def normalize(value):
    if isinstance(value, dict):
        return {
            key: normalize(entry)
            for key, entry in value.items()
            if key not in VOLATILE_KEYS
        }
    if isinstance(value, list):
        return [normalize(entry) for entry in value]
    return value


def golden(name: str) -> dict:
    return normalize(json.loads((GOLDEN_DIR / f"{name}.json").read_text()))


def roundtrip(payload: dict) -> dict:
    """Push the payload through JSON so types match the fixture's."""
    return normalize(json.loads(json.dumps(payload)))


def queue_stats(payload: dict) -> list:
    """The request-queue stats of every (model, workers) point."""
    return [
        point["health"]["queue"]
        for model in payload["models"]
        for point in model["workers"]
    ]


CONFIG = dict(quick=True, out_dir=None)


class TestGoldenPayloads:
    def test_network_payload_bit_identical(self):
        payload = run_network_benchmark(
            models=("mobilenet_v2", "resnet18"),
            batch=2,
            config=CoreConfig(k=4, n=4),
            precision="mixed",
            **CONFIG,
        )
        assert roundtrip(payload) == golden("network")

    def test_serving_payload_bit_identical(self):
        requests = 4
        payload = run_serving_benchmark(
            models=("resnet18",),
            worker_counts=(1, 2),
            requests=requests,
            repeats=1,
            config=CoreConfig(k=4, n=4),
            max_batch=2,
            precision="int4",
            **CONFIG,
        )
        actual = roundtrip(payload)
        expected = golden("serving")
        # How deep the queue gets depends on whether the submit loop
        # outruns the gateway's dispatcher thread.
        for point in queue_stats(actual):
            watermark = point.pop("depth_high_watermark")
            assert 1 <= watermark <= requests
        for point in queue_stats(expected):
            point.pop("depth_high_watermark")
        assert actual == expected

    def test_precision_payload_bit_identical(self):
        payload = run_precision_benchmark(
            models=("resnet18", "shufflenet_v2"),
            precisions=("int8", "int4", "int2", "mixed"),
            batch=2,
            config=CoreConfig(k=4, n=4),
            **CONFIG,
        )
        assert roundtrip(payload) == golden("precision")

    def test_backend_payload_bit_identical(self):
        payload = run_backend_benchmark(
            models=("resnet18",),
            batch=2,
            config=CoreConfig(k=4, n=4),
            **CONFIG,
        )
        assert roundtrip(payload) == golden("backend")
