#!/usr/bin/env python3
"""Engine speed tracking: tick-level vs burst-level simulation.

Times the three execution modes of :class:`repro.core.tempus_core.TempusCore`
(and the binary baseline) on a fixed 16x16 INT8 layer, checks the burst
engine is bit-identical to the tick engine, and appends the measurements to
a ``BENCH_engine.json`` trajectory artifact so later changes can be checked
for regressions.

Run directly::

    python benchmarks/bench_engine_speed.py            # full layer
    python benchmarks/bench_engine_speed.py --quick    # small layer

or through pytest (uses the quick layer to keep suite time bounded)::

    pytest benchmarks/bench_engine_speed.py -q
"""

from __future__ import annotations

import argparse
import json
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.core.tempus_core import TempusCore
from repro.nvdla.config import CoreConfig
from repro.nvdla.conv_core import ConvolutionCore
from repro.utils.intrange import INT8
from repro.utils.rng import make_rng

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"
TRAJECTORY_PATH = RESULTS_DIR / "BENCH_engine.json"

#: Minimum acceptable burst-engine advantage over the tick engine.
SPEEDUP_FLOOR = 50.0


def fixed_layer(quick: bool = False):
    """The benchmark workload: a 16-kernel 3x3 INT8 conv on a 16x16 array.

    The quick variant shrinks the image (fewer output pixels), not the
    array — the per-burst work stays representative.
    """
    rng = make_rng("engine-speed")
    size = 6 if quick else 14
    activations = INT8.random_array(rng, (16, size, size))
    weights = INT8.random_array(rng, (16, 16, 3, 3))
    return activations, weights


def time_mode(mode: str, activations, weights, repeats: int = 1):
    """Best-of-N wall-clock for one engine mode; returns (seconds, result)."""
    config = CoreConfig(k=16, n=16, precision=INT8)
    best = float("inf")
    result = None
    for _ in range(repeats):
        core = TempusCore(config, mode=mode)
        start = time.perf_counter()
        result = core.run_layer(activations, weights, padding=1)
        best = min(best, time.perf_counter() - start)
    return best, result


def measure(quick: bool = False) -> dict:
    """Run the comparison; returns the trajectory record."""
    activations, weights = fixed_layer(quick)
    tick_s, tick = time_mode("cycle", activations, weights)
    burst_s, burst = time_mode("burst", activations, weights, repeats=3)
    fast_s, fast = time_mode("fast", activations, weights, repeats=3)

    assert np.array_equal(tick.output, burst.output), "burst output differs"
    assert tick.cycles == burst.cycles, "burst cycles differ"
    assert tick.atoms == burst.atoms, "burst atoms differ"
    assert tick.gated_cell_cycles == burst.gated_cell_cycles, (
        "burst gating stats differ"
    )
    assert np.array_equal(fast.output, burst.output)
    assert fast.cycles == burst.cycles

    binary_config = CoreConfig(k=16, n=16, precision=INT8)
    start = time.perf_counter()
    binary = ConvolutionCore(binary_config, mode="burst").run_layer(
        activations, weights, padding=1
    )
    binary_burst_s = time.perf_counter() - start

    return {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "quick": quick,
        # Common benchmark-record fields (repro.eval.results_schema):
        # this microbenchmark times one fixed layer on the tempus
        # engine's three modes.
        "net": "microbench_layer",
        "backend": "tempus",
        "precision": "int8",
        "layer": {
            "array": "16x16",
            "precision": "INT8",
            "activations": list(activations.shape),
            "weights": list(weights.shape),
        },
        "simulated_cycles": tick.cycles,
        "atoms": tick.atoms,
        "tick_seconds": round(tick_s, 6),
        "burst_seconds": round(burst_s, 6),
        "fast_seconds": round(fast_s, 6),
        "binary_burst_seconds": round(binary_burst_s, 6),
        "speedup_burst_vs_tick": round(tick_s / burst_s, 2),
        "speedup_floor": SPEEDUP_FLOOR,
    }


def append_trajectory(record: dict, path: Path = TRAJECTORY_PATH) -> Path:
    """Append a record to the JSON trajectory (a list of runs)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    history = []
    if path.exists():
        try:
            history = json.loads(path.read_text())
        except json.JSONDecodeError:
            history = []
    if not isinstance(history, list):
        history = [history]
    history.append(record)
    path.write_text(json.dumps(history, indent=2) + "\n")
    return path


def run(quick: bool = False, write: bool = True) -> dict:
    record = measure(quick)
    if write:
        append_trajectory(record)
    return record


def test_burst_engine_speedup():
    """Tracked invariant: the burst engine is bit-identical (asserted in
    measure()) and dramatically faster than the tick engine."""
    record = run(quick=True, write=False)
    assert record["speedup_burst_vs_tick"] >= SPEEDUP_FLOOR


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small layer (CI-sized run)"
    )
    parser.add_argument(
        "--no-write", action="store_true", help="skip the trajectory append"
    )
    args = parser.parse_args()
    record = run(quick=args.quick, write=not args.no_write)
    print(json.dumps(record, indent=2))
    speedup = record["speedup_burst_vs_tick"]
    print(
        f"\nburst vs tick: {speedup:.0f}x "
        f"({'PASS' if speedup >= SPEEDUP_FLOOR else 'FAIL'} "
        f"vs {SPEEDUP_FLOOR:.0f}x floor); "
        f"trajectory: {TRAJECTORY_PATH}"
    )
    return 0 if speedup >= SPEEDUP_FLOOR else 1


if __name__ == "__main__":
    raise SystemExit(main())
