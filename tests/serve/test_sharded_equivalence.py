"""Randomized differential tests: sharded serving == single process.

The load-bearing serving guarantee, fuzzed rather than spot-checked:
for random nets, batch sizes, dynamic-batching limits and worker
counts, :meth:`ShardedRunner.run` must be bit-identical — outputs AND
cycle counts — to the single-process :meth:`NetworkRunner.run` and to
the per-image reference path through the real cores.

All randomness flows from the ``fuzz_rng`` fixture, which derives from
the ``PYTEST_SEED`` environment variable; a failure report prints the
seed, so any counterexample replays exactly.
"""

import numpy as np
import pytest

from repro.nvdla.config import CoreConfig
from repro.runtime import NetworkRunner
from repro.serve import ShardedRunner
from repro.serve.sharded import ShardedResult

#: Structurally dissimilar nets (depthwise-heavy, dense-residual,
#: grouped/shuffled, branchy) — kept tiny via scale/input_size.
FUZZ_MODELS = (
    "mobilenet_v2",
    "resnet18",
    "shufflenet_v2",
    "googlenet",
)
#: Precision profiles the fuzzer draws from: the three uniform paper
#: precisions plus the standard mixed edge recipe.
FUZZ_PRECISIONS = ("int8", "int4", "int2", "mixed")
#: Compute backends the fuzzer draws from: all four registered MAC-unit
#: designs plus a mixed per-stage recipe (binary edges, tubGEMM
#: interior) — outputs must be backend-independent on every path.
FUZZ_BACKENDS = (
    "tempus",
    "binary",
    "tugemm",
    "tubgemm",
    "binary/tubgemm/binary",
)
TINY = dict(scale=0.06, input_size=16)


def _random_scenario(fuzz_rng):
    """Draw one serving scenario from the seeded fuzz stream."""
    return {
        "model": FUZZ_MODELS[int(fuzz_rng.integers(len(FUZZ_MODELS)))],
        "engine": FUZZ_BACKENDS[
            int(fuzz_rng.integers(len(FUZZ_BACKENDS)))
        ],
        "batch": int(fuzz_rng.integers(1, 6)),
        "max_batch": int(fuzz_rng.integers(1, 5)),
        "k": int(2 ** fuzz_rng.integers(1, 3)),
        "scheduling": bool(fuzz_rng.integers(2)),
        "precision": FUZZ_PRECISIONS[
            int(fuzz_rng.integers(len(FUZZ_PRECISIONS)))
        ],
    }


def _random_images(fuzz_rng, runner, model, batch):
    net = runner.compile(model)
    return net.precision.random_array(
        fuzz_rng, (batch,) + tuple(net.input_shape)
    )


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_sharded_equals_single_process_and_per_image(
    fuzz_rng, workers
):
    """Three-way bit-identity on seeded random scenarios."""
    for _ in range(2):
        scenario = _random_scenario(fuzz_rng)
        config = CoreConfig(k=scenario["k"], n=4)
        runner = NetworkRunner(
            config,
            engine=scenario["engine"],
            scheduling=scenario["scheduling"],
            precision=scenario["precision"],
            **TINY,
        )
        images = _random_images(
            fuzz_rng, runner, scenario["model"], scenario["batch"]
        )
        reference = runner.run(scenario["model"], images)
        per_image = runner.run_per_image(scenario["model"], images)
        with ShardedRunner(
            workers=workers,
            config=config,
            engine=scenario["engine"],
            scheduling=scenario["scheduling"],
            max_batch=scenario["max_batch"],
            max_wait=0.005,
            precision=scenario["precision"],
            **TINY,
        ) as server:
            sharded = server.run(scenario["model"], images)
        context = f"scenario={scenario} workers={workers}"
        assert np.array_equal(
            sharded.output, reference.output
        ), context
        assert np.array_equal(
            sharded.output, per_image.output
        ), context
        assert (
            sharded.conv_cycles
            == reference.conv_cycles
            == per_image.conv_cycles
        ), context


@pytest.mark.parametrize("engine", ["tempus", "binary", "tubgemm"])
@pytest.mark.parametrize("precision", FUZZ_PRECISIONS)
def test_precision_profiles_three_way_equivalence(
    fuzz_rng, precision, engine
):
    """The mixed-precision serving guarantee, swept explicitly: at
    INT2/INT4/INT8 and the mixed profile, on both engines, sharded
    serving == batched run == per-image reference — outputs AND
    cycles."""
    config = CoreConfig(k=4, n=4)
    runner = NetworkRunner(
        config, engine=engine, precision=precision, **TINY
    )
    model = FUZZ_MODELS[int(fuzz_rng.integers(len(FUZZ_MODELS)))]
    batch = int(fuzz_rng.integers(2, 5))
    images = _random_images(fuzz_rng, runner, model, batch)
    reference = runner.run(model, images)
    per_image = runner.run_per_image(model, images)
    with ShardedRunner(
        workers=2,
        config=config,
        engine=engine,
        precision=precision,
        max_batch=2,
        **TINY,
    ) as server:
        sharded = server.run(model, images)
    context = f"model={model} precision={precision} engine={engine}"
    assert np.array_equal(sharded.output, reference.output), context
    assert np.array_equal(sharded.output, per_image.output), context
    assert (
        sharded.conv_cycles
        == reference.conv_cycles
        == per_image.conv_cycles
    ), context
    assert server.profile.name == precision


def test_synthesized_requests_match_network_runner(fuzz_rng):
    """An int request count serves the exact images NetworkRunner.run
    synthesizes for the same batch size."""
    batch = int(fuzz_rng.integers(2, 7))
    config = CoreConfig(k=4, n=4)
    reference = NetworkRunner(config, engine="tempus", **TINY).run(
        "resnet18", batch
    )
    with ShardedRunner(
        workers=2, config=config, engine="tempus", max_batch=3, **TINY
    ) as server:
        sharded = server.run("resnet18", batch)
    assert np.array_equal(sharded.output, reference.output)
    assert sharded.conv_cycles == reference.conv_cycles


def test_spawn_start_method_bit_identical():
    """Under ``spawn`` every worker gets the compiled program pickled
    instead of inherited; the stream stays bit-identical."""
    config = CoreConfig(k=4, n=4)
    reference = NetworkRunner(config, engine="tempus", **TINY).run(
        "resnet18", 4
    )
    with ShardedRunner(
        workers=2,
        config=config,
        engine="tempus",
        start_method="spawn",
        max_batch=2,
        **TINY,
    ) as server:
        assert server.start_method == "spawn"
        result = server.run("resnet18", 4)
    assert np.array_equal(result.output, reference.output)
    assert result.conv_cycles == reference.conv_cycles


def test_request_order_is_restored_under_scatter(fuzz_rng):
    """Per-request ordering survives round-robin scatter: each output
    row equals the single-image run of that row's input."""
    config = CoreConfig(k=4, n=4)
    runner = NetworkRunner(config, engine="tempus", **TINY)
    images = _random_images(fuzz_rng, runner, "shufflenet_v2", 5)
    with ShardedRunner(
        workers=3, config=config, engine="tempus", max_batch=2, **TINY
    ) as server:
        sharded = server.run("shufflenet_v2", images)
    for index in range(images.shape[0]):
        single = runner.run("shufflenet_v2", images[index])
        assert np.array_equal(
            sharded.output[index], single.output[0]
        ), f"request {index} out of order"


def test_shard_accounting_consistent(fuzz_rng):
    """Shard cycle totals partition the batch total, and the makespan
    is the slowest shard."""
    config = CoreConfig(k=4, n=4)
    with ShardedRunner(
        workers=4,
        config=config,
        engine="tempus",
        max_batch=2,
        max_wait=0.5,  # ample straggler window -> full batches only
        **TINY,
    ) as server:
        result = server.run("resnet18", 8)
    assert isinstance(result, ShardedResult)
    assert sum(result.shard_cycles) == result.conv_cycles
    assert result.makespan_cycles == max(result.shard_cycles)
    assert result.jobs == 4  # 8 requests coalesced 2 at a time
    assert len(result.shard_cycles) == 4


def test_bad_requests_rejected_before_dispatch():
    """Malformed or out-of-range request batches are rejected in the
    parent, before any shard sees them."""
    from repro.errors import ReproError

    config = CoreConfig(k=4, n=4)
    with ShardedRunner(
        workers=2, config=config, engine="tempus", max_batch=4, **TINY
    ) as server:
        net = server.compile("resnet18")
        bad = np.zeros((2,) + tuple(net.input_shape), dtype=np.int64)
        bad[0, 0, 0, 0] = 10**6  # far outside INT8
        with pytest.raises(ReproError):
            server.run("resnet18", bad)
        with pytest.raises(ReproError):
            server.run("resnet18", np.zeros((2, 5, 4, 4), np.int64))


def test_dead_worker_recovers_instead_of_failing():
    """A shard killed without reporting (hard kill / OOM / native
    crash) must not hang or abort the stream: the supervisor respawns
    it and the run completes bit-identical, with restart telemetry.
    (Until PR 6 this scenario aborted the whole request stream.)"""
    config = CoreConfig(k=4, n=4)
    runner = NetworkRunner(config, engine="tempus", **TINY)
    with ShardedRunner(
        workers=1, config=config, engine="tempus", **TINY
    ) as server:
        server.start("resnet18")
        for process in server._processes:
            process.terminate()
            process.join(timeout=30)
        sharded = server.run("resnet18", 4)
    reference = runner.run("resnet18", 4)
    assert np.array_equal(sharded.output, reference.output)
    assert sharded.conv_cycles == reference.conv_cycles
    assert sharded.health["restarts"] >= 1


def test_worker_failure_surfaces_full_traceback():
    """Regression: a worker-side executor failure must ship the full
    ``traceback.format_exc()`` — naming the failing function and line
    inside the executor — not a bare ``repr`` of the exception.  A
    malformed job is handed straight to the supervisor (bypassing the
    parent-side validation that normally rejects it) so the failure
    happens inside the worker."""
    from repro.errors import DataflowError

    config = CoreConfig(k=4, n=4)
    with ShardedRunner(
        workers=1, config=config, engine="tempus", max_attempts=1,
        **TINY,
    ) as server:
        server.start("resnet18")
        server.supervisor.begin_stream()
        server.supervisor.submit(0, np.zeros((1, 2), np.int64))
        with pytest.raises(DataflowError) as excinfo:
            server.supervisor.next_result()
    message = str(excinfo.value)
    assert "Traceback (most recent call last)" in message
    assert "run_job" in message  # the failing worker entry point
    assert "executor.py" in message
    assert ", line " in message  # file/line context, not a repr


def test_shed_requests_fail_the_run_with_a_dataflow_error():
    """Under "shed" admission a full queue evicts its oldest requests,
    so the stream cannot be returned whole: ``run`` raises
    :class:`DataflowError` naming the shed sequence numbers (not a bare
    ``ValueError`` from stacking a missing row) and releases the
    pool."""
    import re

    from repro.errors import DataflowError

    server = ShardedRunner(
        workers=1,
        max_batch=4,
        max_wait=0.05,
        max_pending=2,
        admission="shed",
        config=CoreConfig(k=4, n=4),
        **TINY,
    )
    try:
        with pytest.raises(
            DataflowError, match="shed by admission control"
        ) as excinfo:
            server.run("resnet18", 12)
        named = re.search(r"sequence numbers \[([\d, ]+)\]",
                          str(excinfo.value))
        assert named is not None, str(excinfo.value)
        shed = [int(seq) for seq in named.group(1).split(",")]
        assert shed == sorted(set(shed))
        assert set(shed) <= set(range(12))
        assert server.supervisor is None
        assert server._processes == []
    finally:
        server.stop()


def test_a_bad_batch_keeps_the_warm_pool():
    """A batch that fails validation (wrong shape, or empty) raises
    :class:`DataflowError` before any request is submitted: the warm
    pool keeps its supervisor and worker processes, and the next valid
    run is served by them without a respawn."""
    from repro.errors import DataflowError

    config = CoreConfig(k=4, n=4)
    with ShardedRunner(
        workers=1, config=config, engine="tempus", **TINY
    ) as server:
        server.start("resnet18")
        supervisor = server.supervisor
        pids = [process.pid for process in server._processes]
        net = server.compile("resnet18")
        for bad in (
            np.zeros((2, 1, 8, 16), np.int64),
            np.zeros((0,) + tuple(net.input_shape), np.int64),
        ):
            with pytest.raises(DataflowError):
                server.run("resnet18", bad)
            assert server.supervisor is supervisor, bad.shape
            assert [process.pid for process in server._processes] == pids
        result = server.run("resnet18", 2)
        assert server.supervisor is supervisor
        assert [process.pid for process in server._processes] == pids
    assert result.health["restarts"] == 0
