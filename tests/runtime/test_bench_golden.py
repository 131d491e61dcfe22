"""Before/after payload pinning for the spec-driven bench drivers.

The fixtures under ``tests/runtime/golden/`` were generated by the
drivers in a fresh process; the backend fixture's tempus and binary
records equal those of the retired single-purpose network and
precision drivers at the same points.  The paper fixture holds every
experiment's quick-preset rows and comparisons as the per-experiment
``run_experiment`` produced them before the ``paper`` spec existed.  Every field the drivers write
is a function of the spec — the serving driver coalesces by request
count only and records no thread-timing field — so the payloads must
reproduce them bit-identically, whole.
"""

import json
from dataclasses import replace
from pathlib import Path

from repro.runtime.bench import MAX_BATCH, run_backend_benchmark, \
    run_serving_benchmark
from repro.tune.spec import BACKENDS_SWEEP, SERVING_SWEEP

GOLDEN_DIR = Path(__file__).parent / "golden"


def golden(name: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


def roundtrip(payload: dict) -> dict:
    """Push the payload through JSON so types match the fixture's."""
    return json.loads(json.dumps(payload))


def small(spec, **axes):
    """A registered spec on the fixtures' quick 4x4 array."""
    return replace(spec, quick=True, geometries=("4x4",), **axes)


class TestGoldenPayloads:
    def test_serving_payload_bit_identical(self):
        payload = run_serving_benchmark(
            small(
                SERVING_SWEEP,
                nets=("resnet18",),
                workers=(1, 2),
                precisions=("int4",),
                batch=2 * MAX_BATCH,
            ),
            out_dir=None,
        )
        assert roundtrip(payload) == golden("serving")

    def test_paper_payload_bit_identical(self, paper_quick):
        expected = golden("paper")
        records = paper_quick.payload["experiments"]
        assert [record["id"] for record in records] == list(expected)
        for record in records:
            assert {
                "rows": record["rows"],
                "comparisons": record["comparisons"],
            } == expected[record["id"]], record["id"]

    def test_backend_payload_bit_identical(self):
        payload = run_backend_benchmark(
            small(BACKENDS_SWEEP, nets=("resnet18",), batch=2),
            out_dir=None,
        )
        assert roundtrip(payload) == golden("backend")
