#!/usr/bin/env python3
"""Extension benchmark — autoregressive LLM serving on the op-graph IR
(BENCH_llm.json) plus the Sec. VI ultra-low-precision projection study.

Token-by-token decode of the ``tiny_llm`` transformer block on every
registered backend at int8/int4/int2: growing-sequence GEMM shapes
through the dynamic-token linear stages, per-token latency
percentiles, and bit-identity verified in-driver at every point: the
batched executor against the per-image run through the real cores
(outputs, total and per-stage cycles), and sharded serving against
the batched executor.

Run directly::

    python benchmarks/bench_ext_llm.py               # full preset, 64 tokens
    python benchmarks/bench_ext_llm.py --quick       # CI-sized (32 tokens)
    python benchmarks/bench_ext_llm.py --tokens 16 --workers 1 2

or through pytest (quick preset)::

    pytest benchmarks/bench_ext_llm.py -q
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.runtime.bench import (
    DEFAULT_BACKEND_PRECISIONS,
    DEFAULT_BACKEND_SWEEP,
    DEFAULT_LLM_WORKERS,
    render_llm_benchmark,
    run_llm_benchmark,
)

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def run(
    tokens=None,
    quick: bool = False,
    sharded_workers=DEFAULT_LLM_WORKERS,
    write: bool = True,
) -> dict:
    payload = run_llm_benchmark(
        tokens=tokens,
        quick=quick,
        sharded_workers=sharded_workers,
        out_dir=RESULTS_DIR if write else None,
    )
    # Contract checks: the sweep covers every backend x precision, and
    # every point decoded bit-identically across the batched,
    # per-image and sharded paths with TubMatVec cycle parity.
    points = {
        (record["backend"], record["precision"])
        for record in payload["records"]
    }
    assert points == {
        (backend, precision)
        for backend in DEFAULT_BACKEND_SWEEP
        for precision in DEFAULT_BACKEND_PRECISIONS
    }
    for record in payload["records"]:
        assert record["bit_identical"]
        assert record["sharded_bit_identical"]
        assert record["matvec_parity"]
        assert record["cycles_monotone_nondecreasing"]
        assert len(record["per_token"]) == payload["tokens"]
    return payload


def test_ext_llm_decode():
    """Tracked invariant: the transformer block decodes bit-identically
    on every backend x precision with bounded per-token latency data."""
    payload = run(
        tokens=8, quick=True, sharded_workers=(1,), write=False
    )
    assert payload["tokens"] == 8


def test_ext_llm_projection(paper_experiment):
    result = paper_experiment("llm")
    by_precision = {row[0]: row for row in result.rows}
    int8 = by_precision["INT8 weights"]
    int4 = by_precision["INT4 weights"]
    int2 = by_precision["INT2 weights"]
    # slowdown collapses with precision: INT2 reaches parity
    assert int2[2] == int2[1]
    assert int4[2] < int8[2]
    assert int4[2] <= int4[1] * 4


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tokens",
        type=int,
        default=None,
        help="decode length (default: preset input size — 64 full, 32 quick)",
    )
    parser.add_argument(
        "--workers",
        nargs="+",
        type=int,
        default=list(DEFAULT_LLM_WORKERS),
        help="shard-pool sizes re-verified per point (default: 1 2)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized preset"
    )
    parser.add_argument(
        "--no-write", action="store_true", help="skip the JSON artifact"
    )
    args = parser.parse_args()
    payload = run(
        tokens=args.tokens,
        quick=args.quick,
        sharded_workers=tuple(args.workers),
        write=not args.no_write,
    )
    print(render_llm_benchmark(payload))
    if "artifact" in payload:
        print(f"\nwrote {payload['artifact']}")
    else:
        print("\n" + json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
