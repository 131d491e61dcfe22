#!/usr/bin/env python3
"""Batched full-network inference benchmark (BENCH_networks.json).

Runs zoo models end to end through the batched runtime on both
convolution engines, checks that their outputs stay bit-identical and
that the batched path matches the per-image reference pipeline, then
writes ``results/BENCH_networks.json`` (cycles per network, images per
million cycles, tempus-vs-binary and scheduling cycle ratios).

Run directly::

    python benchmarks/bench_network_inference.py             # full preset
    python benchmarks/bench_network_inference.py --quick     # CI-sized
    python benchmarks/bench_network_inference.py --models resnet18 googlenet

or through pytest (quick preset)::

    pytest benchmarks/bench_network_inference.py -q
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.runtime.bench import (
    DEFAULT_MODELS,
    render_benchmark,
    run_network_benchmark,
)
from repro.runtime.runner import NetworkRunner

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def check_batched_matches_reference(quick: bool) -> None:
    """The batched path must reproduce the per-image pipeline exactly
    (outputs *and* cycles) on both engines."""
    from repro.runtime.bench import FULL_PRESET, QUICK_PRESET

    scale, input_size = QUICK_PRESET if quick else FULL_PRESET
    for engine in ("binary", "tempus"):
        runner = NetworkRunner(
            engine=engine, scale=scale, input_size=input_size
        )
        batched = runner.run(DEFAULT_MODELS[0], 4)
        reference = runner.run_per_image(DEFAULT_MODELS[0], 4)
        assert np.array_equal(batched.output, reference.output), (
            f"{engine}: batched output diverged from per-image pipeline"
        )
        assert batched.conv_cycles == reference.conv_cycles, (
            f"{engine}: batched cycles diverged from per-image pipeline"
        )


def run(
    models=DEFAULT_MODELS,
    batch: int = 4,
    quick: bool = False,
    write: bool = True,
) -> dict:
    check_batched_matches_reference(quick)
    payload = run_network_benchmark(
        models=models,
        batch=batch,
        quick=quick,
        out_dir=RESULTS_DIR if write else None,
    )
    # Reproduced-shape checks: every model ran bit-identically across
    # engines, and scheduling never costs cycles.
    assert len(payload["models"]) >= 1
    for record in payload["models"]:
        assert record["outputs_bit_identical"]
        assert record["scheduling_speedup"] >= 1.0
    return payload


def test_network_inference_quick():
    """Tracked invariant: batched == per-image on both engines, and the
    artifact carries both engines' numbers for >= 2 networks."""
    payload = run(quick=True, write=False)
    assert len(payload["models"]) >= 2
    for record in payload["models"]:
        assert record["engines"]["tempus"]["conv_cycles"] > 0
        assert record["engines"]["binary"]["conv_cycles"] > 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--models",
        nargs="+",
        default=list(DEFAULT_MODELS),
        help=f"zoo models (default: {' '.join(DEFAULT_MODELS)})",
    )
    parser.add_argument(
        "--batch", type=int, default=4, help="images per run (default 4)"
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized preset"
    )
    parser.add_argument(
        "--no-write", action="store_true", help="skip the JSON artifact"
    )
    args = parser.parse_args()
    payload = run(
        models=tuple(args.models),
        batch=args.batch,
        quick=args.quick,
        write=not args.no_write,
    )
    print(render_benchmark(payload))
    if "artifact" in payload:
        print(f"\nwrote {payload['artifact']}")
    else:
        print("\n" + json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
