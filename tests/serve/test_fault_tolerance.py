"""Chaos-differential tests: sharded serving survives faults
bit-identically.

The fault-tolerance contract, pinned end to end: for any injected
fault schedule that leaves at least one live execution path, a
:class:`~repro.serve.ShardedRunner` stream must complete **bit-
identical** — outputs AND cycle totals — to the single-process
:meth:`~repro.runtime.runner.NetworkRunner.run`, and the supervisor's
health telemetry must show the recovery actually happened (the faults
were not silently skipped).

Each fault kind gets an explicit scheduled scenario (crash, hang,
slow-past-deadline, transient error, pool collapse), and rate-based
seeded chaos sweeps worker counts 1/2/4.  Fault plans are pure
functions of their seed, so every failure here replays exactly.
"""

import time

import numpy as np
import pytest

from repro.errors import DataflowError
from repro.nvdla.config import CoreConfig
from repro.runtime import NetworkRunner
from repro.serve import FaultPlan, FaultSpec, ShardedRunner

TINY = dict(scale=0.06, input_size=16)


def _reference(model, batch, config=None):
    config = config or CoreConfig(k=4, n=4)
    return NetworkRunner(config, engine="tempus", **TINY).run(
        model, batch
    )


def _assert_identical(sharded, reference, context=""):
    assert np.array_equal(sharded.output, reference.output), context
    assert sharded.conv_cycles == reference.conv_cycles, context


def _serve(batch, fault_plan, model="resnet18", **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("max_batch", 2)
    config = kwargs.pop("config", None) or CoreConfig(k=4, n=4)
    with ShardedRunner(
        config=config,
        engine="tempus",
        fault_plan=fault_plan,
        **TINY,
        **kwargs,
    ) as server:
        return server.run(model, batch)


def test_crash_recovery_is_bit_identical():
    """A shard that hard-exits mid-stream (OOM kill analogue) is
    respawned and its lost jobs are redispatched — the stream still
    completes bit-identical."""
    plan = FaultPlan(faults=(FaultSpec(kind="crash", job=0),))
    result = _serve(6, plan)
    _assert_identical(result, _reference("resnet18", 6))
    assert result.health["restarts"] >= 1
    assert result.health["redispatched"] >= 1


def test_hang_recovery_via_job_deadline():
    """A hung worker never reports and stays alive — only the job
    deadline can catch it.  The supervisor must kill, respawn and
    redispatch, and the stream stays bit-identical."""
    plan = FaultPlan(
        faults=(FaultSpec(kind="hang", job=1, seconds=60.0),)
    )
    result = _serve(6, plan, job_deadline=0.5)
    _assert_identical(result, _reference("resnet18", 6))
    assert result.health["deadline_misses"] >= 1
    assert result.health["redispatched"] >= 1


def test_slow_worker_past_deadline_is_redispatched():
    """A worker slower than the deadline is treated as hung; its late
    answer (attempt 0) must be discarded, not double-counted."""
    plan = FaultPlan(
        faults=(FaultSpec(kind="slow", job=0, seconds=1.2),)
    )
    result = _serve(4, plan, job_deadline=0.4)
    _assert_identical(result, _reference("resnet18", 4))
    assert result.health["deadline_misses"] >= 1


def test_slow_worker_within_deadline_needs_no_recovery():
    plan = FaultPlan(
        faults=(FaultSpec(kind="slow", job=0, seconds=0.05),)
    )
    result = _serve(4, plan, job_deadline=5.0)
    _assert_identical(result, _reference("resnet18", 4))
    assert result.health["restarts"] == 0
    assert result.health["redispatched"] == 0


def test_transient_error_is_retried():
    """A worker that reports a transient failure stays alive; the next
    attempt of the same job succeeds on the pool."""
    plan = FaultPlan(
        faults=(
            FaultSpec(kind="error", job=0, attempt=0),
            FaultSpec(kind="error", job=1, attempt=0),
        )
    )
    result = _serve(6, plan)
    _assert_identical(result, _reference("resnet18", 6))
    assert result.health["retries"] >= 2
    assert result.health["worker_errors"] >= 2
    assert result.health["restarts"] == 0


def test_pool_collapse_degrades_in_process():
    """When every shard crashes on every attempt and the restart
    budget is exhausted, the stream degrades to the parent's own
    executor instead of failing — and stays bit-identical, because the
    fallback runs the same BatchExecutor code path."""
    plan = FaultPlan(
        faults=(FaultSpec(kind="crash", job=None, attempt=None),)
    )
    result = _serve(6, plan, max_restarts=0)
    _assert_identical(result, _reference("resnet18", 6))
    assert result.health["degraded_jobs"] == result.jobs
    assert result.health["live_shards"] == 0
    assert result.health["degraded_cycles"] == result.conv_cycles
    assert sum(result.shard_cycles) == 0


def test_start_builds_no_parent_executor():
    """A healthy pool never runs the parent's degraded-mode executor,
    so start() leaves it unbuilt; the workers build their own."""
    server = ShardedRunner(
        workers=1, config=CoreConfig(k=4, n=4), **TINY
    )
    try:
        server.start("resnet18")
        assert server._runner._executors == {}
    finally:
        server.stop()


def test_pool_below_min_live_builds_the_fallback_on_demand():
    """A crash that leaves fewer than min_live shards sends the rest
    of the stream to the parent's fallback executor, built on its
    first job — bit-identical to NetworkRunner.run."""
    plan = FaultPlan(faults=(FaultSpec(kind="crash", job=0),))
    with ShardedRunner(
        workers=2,
        min_live=2,
        max_restarts=0,
        max_batch=2,
        config=CoreConfig(k=4, n=4),
        engine="tempus",
        fault_plan=plan,
        **TINY,
    ) as server:
        result = server.run("resnet18", 6)
        built = set(server._runner._executors)
    _assert_identical(result, _reference("resnet18", 6))
    assert result.health["degraded_jobs"] >= 1
    assert built == {"resnet18"}


def test_externally_killed_workers_recover():
    """Workers killed from outside (no fault plan at all) are detected
    by the liveness probe and replaced; the stream completes with
    restart telemetry instead of aborting."""
    config = CoreConfig(k=4, n=4)
    with ShardedRunner(
        workers=2, config=config, engine="tempus", max_batch=2, **TINY
    ) as server:
        server.start("resnet18")
        for process in server._processes:
            process.terminate()
            process.join(timeout=30)
        result = server.run("resnet18", 6)
    _assert_identical(result, _reference("resnet18", 6, config))
    assert result.health["restarts"] >= 1


def _kill_and_await_respawn(server):
    """Terminate every worker of ``server``'s pool from outside and
    wait until the supervisor's probe thread has replaced them all."""
    killed = set()
    for process in server._processes:
        killed.add(process.pid)
        process.terminate()
        process.join(timeout=30)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        processes = server._processes
        if len(processes) == len(killed) and all(
            process.pid not in killed and process.is_alive()
            for process in processes
        ):
            return
        time.sleep(0.02)
    raise AssertionError("the probe never respawned the killed workers")


def test_workers_respawned_between_streams_show_in_the_next_stream():
    """Workers killed before a stream (and after one) and already
    replaced by the probe thread when the next stream begins still
    count in that stream's ``restarts``; they do not vanish when the
    stream resets its health.  A stream with no fault after them
    reports none, so no respawn is counted twice."""
    config = CoreConfig(k=4, n=4)
    reference = _reference("resnet18", 6, config)
    with ShardedRunner(
        workers=2, config=config, engine="tempus", max_batch=2, **TINY
    ) as server:
        server.start("resnet18")
        _kill_and_await_respawn(server)
        first = server.run("resnet18", 6)
        _kill_and_await_respawn(server)
        second = server.run("resnet18", 6)
        clean = server.run("resnet18", 6)
    for result in (first, second, clean):
        _assert_identical(result, reference)
    assert first.health["restarts"] >= 1
    assert second.health["restarts"] >= 1
    assert clean.health["restarts"] == 0


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_seeded_chaos_is_bit_identical(fuzz_rng, workers):
    """Rate-based chaos at every pool size: crash/slow/error faults
    from a seed drawn off the session's fuzz stream, full recovery,
    bit-identical stream."""
    seed = int(fuzz_rng.integers(2**31))
    plan = FaultPlan.random(
        seed,
        rate=0.4,
        kinds=("crash", "error", "slow"),
        slow_seconds=0.02,
    )
    context = f"fault seed {seed} workers {workers}"
    result = _serve(
        8, plan, workers=workers, job_deadline=5.0, max_restarts=8
    )
    _assert_identical(result, _reference("resnet18", 8), context)
    assert result.health["fault_plan"] == plan.describe()


def test_chaos_replays_exactly_from_seed(fuzz_rng):
    """Two runs under the same fault seed inject the same schedule:
    identical outputs, cycles and fault-plan descriptions."""
    seed = int(fuzz_rng.integers(2**31))
    results = [
        _serve(
            6,
            FaultPlan.random(
                seed, rate=0.5, kinds=("crash", "error")
            ),
            max_restarts=8,
        )
        for _ in range(2)
    ]
    _assert_identical(results[0], results[1], f"fault seed {seed}")
    assert (
        results[0].health["fault_plan"]
        == results[1].health["fault_plan"]
    )


def test_hang_capable_plan_requires_deadline():
    plan = FaultPlan(faults=(FaultSpec(kind="hang", job=0),))
    with pytest.raises(DataflowError, match="job_deadline"):
        ShardedRunner(
            workers=2,
            config=CoreConfig(k=4, n=4),
            fault_plan=plan,
            **TINY,
        )


def test_back_to_back_streams_reset_health():
    """Restart budgets and telemetry are per stream: a crashy first
    stream must not poison the second one's counters or pool."""
    plan = FaultPlan(faults=(FaultSpec(kind="crash", job=0),))
    config = CoreConfig(k=4, n=4)
    with ShardedRunner(
        workers=2,
        config=config,
        engine="tempus",
        max_batch=2,
        fault_plan=plan,
        **TINY,
    ) as server:
        first = server.run("resnet18", 4)
        second = server.run("resnet18", 4)
    reference = _reference("resnet18", 4, config)
    _assert_identical(first, reference)
    _assert_identical(second, reference)
    # Job ids restart per stream, so the explicit job-0 crash fires
    # again — but on a fresh budget, from a fully repopulated pool.
    assert first.health["restarts"] >= 1
    assert second.health["restarts"] >= 1


class TestStopSafety:
    def test_stop_is_idempotent(self):
        server = ShardedRunner(
            workers=2, config=CoreConfig(k=4, n=4), **TINY
        )
        server.start("resnet18")
        server.stop()
        server.stop()  # second stop must be a no-op, not an error
        assert server._processes == []

    def test_stop_survives_already_dead_workers(self):
        server = ShardedRunner(
            workers=2, config=CoreConfig(k=4, n=4), **TINY
        )
        server.start("resnet18")
        for process in server._processes:
            process.terminate()
            process.join(timeout=30)
        server.stop()
        server.stop()

    def test_run_after_stop_restarts_the_pool(self):
        config = CoreConfig(k=4, n=4)
        server = ShardedRunner(
            workers=2, config=config, engine="tempus", **TINY
        )
        try:
            first = server.run("resnet18", 4)
            server.stop()
            second = server.run("resnet18", 4)
            _assert_identical(second, first)
        finally:
            server.stop()

    def test_failed_stream_releases_the_pool(self):
        server = ShardedRunner(
            workers=2, config=CoreConfig(k=4, n=4), **TINY
        )
        with pytest.raises(Exception):
            server.run("resnet18", np.zeros((2, 5, 4, 4), np.int64))
        assert server.supervisor is None
        assert server._processes == []
