"""Sharded serving of the autoregressive transformer block.

Per-token decode requests are batch-1 streams whose token axis grows
every step; the shard pool must return outputs AND cycle totals
bit-identical to the single-process executor at every worker count
and prefix length.
"""

import numpy as np
import pytest

from repro.nvdla.config import CoreConfig
from repro.runtime import BatchExecutor, NetworkRunner
from repro.serve import ShardedRunner

TINY = dict(scale=0.0625, input_size=8)


@pytest.mark.parametrize("workers", (1, 2))
def test_sharded_decode_bit_identical(workers, fuzz_rng):
    engine = ("tempus", "binary", "tugemm", "tubgemm")[
        int(fuzz_rng.integers(4))
    ]
    precision = ("int8", "int4", "int2")[int(fuzz_rng.integers(3))]
    config = CoreConfig(k=4, n=4)
    runner = NetworkRunner(
        config, engine=engine, precision=precision, **TINY
    )
    net = runner.compile("tiny_llm")
    plain = runner.executor("tiny_llm")
    tokens = 8
    stream = np.asarray(
        net.precision.random_array(
            fuzz_rng, (1, net.input_shape[0], tokens, 1)
        ),
        dtype=np.int64,
    )
    with ShardedRunner(
        workers=workers,
        config=config,
        engine=engine,
        precision=precision,
        **TINY,
    ) as server:
        server.start("tiny_llm")
        for step in (1, 3, tokens):
            prefix = stream[:, :, :step, :]
            sharded = server.run("tiny_llm", prefix)
            reference = plain.run_job(prefix)
            context = (
                f"engine={engine} precision={precision} "
                f"workers={workers} step={step}"
            )
            assert np.array_equal(
                sharded.output, reference["output"]
            ), f"output mismatch: {context}"
            assert (
                sharded.conv_cycles == reference["conv_cycles"]
            ), f"cycles mismatch: {context}"


def test_sharded_decode_reuses_rows_bit_identically(fuzz_rng):
    """A 64-token decode through two workers — each worker's executor
    reuses the rows of the last prefix it ran — returns, at every
    step, the output, cycles and per-stage cycles of a fresh
    executor's full run, and counts MACs at the step's token count."""
    engine = ("tempus", "binary", "tugemm", "tubgemm")[
        int(fuzz_rng.integers(4))
    ]
    precision = ("int8", "int4", "int2")[int(fuzz_rng.integers(3))]
    config = CoreConfig(k=4, n=4)
    runner = NetworkRunner(
        config, engine=engine, precision=precision, **TINY
    )
    net = runner.compile("tiny_llm")
    per_token = net.batch_macs((1, net.input_shape[0], 1, 1))
    stream = np.asarray(
        net.precision.random_array(
            fuzz_rng, (1, net.input_shape[0], 64, 1)
        ),
        dtype=np.int64,
    )
    with ShardedRunner(
        workers=2,
        config=config,
        engine=engine,
        precision=precision,
        **TINY,
    ) as server:
        server.start("tiny_llm")
        for step in range(1, 65):
            prefix = stream[:, :, :step, :]
            sharded = server.run("tiny_llm", prefix)
            output, stages, cycles = BatchExecutor(net).run_batch(prefix)
            context = (
                f"engine={engine} precision={precision} step={step}"
            )
            assert np.array_equal(sharded.output, output), context
            assert sharded.conv_cycles == cycles, context
            assert tuple(
                record.conv_cycles for record in sharded.stages
            ) == tuple(record.conv_cycles for record in stages), context
            assert sharded.macs == per_token * step, context
