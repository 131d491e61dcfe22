"""Gateway tests: pipelined serving stays bit-identical under load.

The serving-gateway contract, pinned end to end:

* a drained :class:`~repro.serve.ServingGateway` stream is
  **bit-identical** — outputs AND cycle totals — to the
  single-process :meth:`~repro.runtime.runner.NetworkRunner.run`
  reference over the same images, under any arrival schedule
  (Poisson, burst, closed loop, the synchronous drain of
  ``ShardedRunner.run``), any worker count, and a 25% injected-fault
  chaos plan;
* every response's latency decomposition (queue wait / dispatch /
  compute / reassembly) is non-negative and never sums past the
  total;
* eager dispatch keeps idle-pool latency off the ``max_wait``
  coalescing window (the no-polling regression test);
* the supervisor's probe thread detects hung shards *autonomously* —
  without the consumer sitting in ``next_result``;
* dynamic-token requests of different lengths never share a batch,
  and a batch that cannot be formed fails only its own tickets.
"""

import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.errors import DataflowError
from repro.nvdla.config import CoreConfig
from repro.runtime import NetworkRunner
from repro.serve import (
    LATENCY_PHASES,
    FaultPlan,
    ServingGateway,
    ShardedRunner,
    burst_schedule,
    poisson_schedule,
    run_closed_loop,
    run_open_loop,
)

TINY = dict(scale=0.06, input_size=16)
MODEL = "resnet18"


def _config():
    return CoreConfig(k=4, n=4)


def _reference(batch):
    return NetworkRunner(_config(), engine="tempus", **TINY).run(
        MODEL, batch
    )


def _server(**kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("max_batch", 4)
    return ShardedRunner(
        config=_config(), engine="tempus", **TINY, **kwargs
    )


def _images(server, count):
    return server.synthesize_batch(MODEL, count)


def _stage_rows(result):
    return [
        (stage.name, stage.kind, stage.output_shape, stage.conv_cycles)
        for stage in result.stages
    ]


def _assert_identical(result, reference, context=""):
    assert np.array_equal(result.output, reference.output), context
    assert result.conv_cycles == reference.conv_cycles, context
    # Stream-total stage records, shapes included, match the batched
    # run's however the stream was split into jobs.
    assert _stage_rows(result) == _stage_rows(reference), context


class TestBitIdentity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_poisson_arrivals_any_worker_count(self, workers):
        """Open-loop Poisson arrivals produce the exact reference
        tensor and cycle totals at every pool size."""
        requests = 10
        reference = _reference(requests)
        with _server(workers=workers) as server:
            server.start(MODEL)
            images = _images(server, requests)
            run = run_open_loop(
                ServingGateway(server, MODEL),
                images,
                poisson_schedule(300.0, requests, seed=7),
            )
        _assert_identical(run.result, reference, f"{workers} workers")
        assert run.failed == 0
        assert run.result.completed == tuple(range(requests))

    def test_burst_arrivals(self):
        """Synchronized clumps — the coalescing stress case — change
        the batch split, never the results."""
        requests = 12
        reference = _reference(requests)
        with _server() as server:
            server.start(MODEL)
            run = run_open_loop(
                ServingGateway(server, MODEL),
                _images(server, requests),
                burst_schedule(400.0, requests, burst_size=4, seed=3),
            )
        _assert_identical(run.result, reference)

    def test_closed_loop_and_synchronous_driver(self):
        """The pipelined closed loop and the synchronous drain of
        :meth:`ShardedRunner.run` (a coalescing gateway stream) both
        reproduce the reference stream."""
        requests = 8
        reference = _reference(requests)
        with _server() as server:
            server.start(MODEL)
            images = _images(server, requests)
            closed = run_closed_loop(
                ServingGateway(server, MODEL), images, concurrency=4
            )
            sync = server.run(MODEL, images)
        _assert_identical(closed.result, reference, "closed loop")
        _assert_identical(sync, reference, "synchronous")

    def test_chaos_poisson_25_percent_faults(self):
        """The headline chaos leg: 25% injected faults (crash /
        transient error / slow) under Poisson load — recovery runs
        under the gateway and the stream stays bit-identical."""
        requests = 10
        reference = _reference(requests)
        plan = FaultPlan.random(
            110, 0.25, kinds=("crash", "error", "slow"),
            slow_seconds=0.02,
        )
        with _server(fault_plan=plan, job_deadline=2.0) as server:
            server.start(MODEL)
            run = run_open_loop(
                ServingGateway(server, MODEL),
                _images(server, requests),
                poisson_schedule(300.0, requests, seed=7),
            )
        _assert_identical(run.result, reference, "25% chaos")
        health = run.result.health
        assert (
            health["restarts"]
            + health["retries"]
            + health["redispatched"]
            + health["degraded_jobs"]
            > 0
        ), "the fault plan injected nothing — chaos leg is vacuous"

    def test_back_to_back_streams_reuse_the_pool(self):
        """Many gateways run over one warm pool; each stream must
        drain independently and stay bit-identical."""
        requests = 6
        reference = _reference(requests)
        with _server() as server:
            server.start(MODEL)
            images = _images(server, requests)
            for round_index in range(3):
                run = run_closed_loop(
                    ServingGateway(server, MODEL),
                    images,
                    concurrency=2,
                )
                _assert_identical(
                    run.result, reference, f"stream {round_index}"
                )


class TestLatencyDecomposition:
    def test_phases_non_negative_and_sum_within_total(self):
        requests = 10
        with _server() as server:
            server.start(MODEL)
            run = run_open_loop(
                ServingGateway(server, MODEL),
                _images(server, requests),
                poisson_schedule(500.0, requests, seed=1),
            )
        assert len(run.responses) == requests
        for response in run.responses:
            latency = response.latency
            parts = [
                getattr(latency, phase) for phase in LATENCY_PHASES
            ]
            assert all(part >= 0.0 for part in parts)
            assert latency.total > 0.0
            assert sum(parts) <= latency.total + 1e-9


class TestEagerDispatch:
    def test_idle_load_latency_beats_the_coalescing_window(self):
        """The no-polling regression test: with an idle pool, eager
        dispatch ships each request immediately, so latency stays well
        under ``max_wait``; the non-eager gateway pays the full
        coalescing window per lone request."""
        requests = 8
        max_wait = 0.15
        with _server(workers=1, max_wait=max_wait) as server:
            server.start(MODEL)
            images = _images(server, requests)
            # Warm the pool so neither measured stream pays spawn
            # or first-compile costs.
            run_closed_loop(
                ServingGateway(server, MODEL), images, concurrency=1
            )
            eager = run_closed_loop(
                ServingGateway(server, MODEL), images, concurrency=1
            )
            lazy = run_closed_loop(
                ServingGateway(server, MODEL, eager=False),
                images,
                concurrency=1,
            )
        # A lone closed-loop submitter never fills max_batch, so the
        # non-eager queue holds every request for the whole window.
        # Medians, not maxima: a single host-scheduler hiccup must
        # not flake the regression test.
        assert lazy.stats["p50"] >= max_wait
        assert eager.stats["p50"] < max_wait / 2
        assert eager.stats["p50"] < lazy.stats["p50"] / 2


class TestAdmission:
    def test_shed_policy_fails_oldest_ticket(self):
        with _server(
            workers=1, max_pending=2, admission="shed"
        ) as server:
            server.start(MODEL)
            gateway = ServingGateway(
                server, MODEL, max_wait=10.0, eager=False
            )
            images = _images(server, 6)
            tickets = [gateway.submit(image) for image in images]
            # max_batch=4 < 6 submissions with a huge window and
            # depth 2: the oldest overflow tickets must be shed.
            gateway.finish()
        outcomes = []
        for ticket in tickets:
            try:
                ticket.result(timeout=5)
                outcomes.append("served")
            except DataflowError:
                outcomes.append("shed")
        assert "shed" in outcomes
        assert "served" in outcomes
        stats = gateway.stats()
        assert stats["shed"] == outcomes.count("shed")

    def test_reject_policy_raises_at_submit(self):
        with _server(
            workers=1, max_pending=1, admission="reject"
        ) as server:
            server.start(MODEL)
            gateway = ServingGateway(
                server, MODEL, max_wait=10.0, eager=False
            )
            images = _images(server, 4)
            gateway.submit(images[0])
            with pytest.raises(DataflowError):
                for image in images[1:]:
                    gateway.submit(image)
            gateway.finish()


class TestRequestValidation:
    @pytest.mark.parametrize(
        "malformed",
        ["shape", "float_dtype", "above_range", "below_range"],
    )
    def test_malformed_request_fails_only_its_ticket(self, malformed):
        """A malformed request between two healthy ones fails its own
        ticket at submit; the healthy ones complete, bit-identical to
        the single-process reference, with no stall."""
        with _server(workers=1) as server:
            server.start(MODEL)
            images = _images(server, 2)
            bad = {
                "shape": np.zeros((1, 2, 3), dtype=np.int64),
                "float_dtype": images[0].astype(np.float64),
                "above_range": np.full(images[0].shape, 10**9),
                "below_range": np.full(images[0].shape, -129),
            }[malformed]
            gateway = ServingGateway(server, MODEL)
            first = gateway.submit(images[0])
            rejected = gateway.submit(bad)
            last = gateway.submit(images[1])
            with pytest.raises(DataflowError):
                rejected.result(timeout=1)
            rows = [
                first.result(timeout=10).output,
                last.result(timeout=10).output,
            ]
            result = gateway.finish()
        reference = _reference(images)
        assert np.array_equal(np.stack(rows), reference.output)
        _assert_identical(result, reference, malformed)
        assert result.completed == (0, 1)
        assert gateway.stats()["submitted"] == 2


class TestMixedLengthCoalescing:
    def test_mixed_token_counts_complete_in_separate_batches(self):
        """Two valid dynamic-token requests of different lengths land
        in one coalescing window; the queue batches only same-shape
        requests, so both complete bit-identical to the single-process
        runner and the stream drains cleanly."""
        llm = dict(
            config=_config(), engine="tempus", precision="int4",
            scale=0.0625, input_size=8,
        )
        runner = NetworkRunner(**llm)
        net = runner.compile("tiny_llm")
        rng = np.random.default_rng(64)
        requests = [
            net.precision.random_array(
                rng, (net.input_shape[0], tokens, 1)
            )
            for tokens in (64, 65)
        ]
        with ShardedRunner(workers=1, max_batch=4, **llm) as server:
            # eager=False with a long window: both requests are pending
            # when the first batch closes.
            gateway = ServingGateway(
                server, "tiny_llm", eager=False, max_wait=0.3
            )
            tickets = [gateway.submit(image) for image in requests]
            responses = [ticket.result(timeout=10) for ticket in tickets]
            result = gateway.finish()
        assert result.completed == (0, 1)
        assert responses[0].job != responses[1].job
        expected_cycles = 0
        for image, response in zip(requests, responses):
            reference = runner.run("tiny_llm", image)
            assert np.array_equal(response.output, reference.output[0])
            expected_cycles += reference.conv_cycles
        assert result.conv_cycles == expected_cycles
        for image, row in zip(requests, result.output):
            assert row.shape[1] == image.shape[1]


    def test_batch_forming_error_fails_only_its_batch(self):
        """A batch that cannot be stacked fails its own tickets at
        once, and the dispatcher keeps serving the stream."""

        class Unstackable:
            def __init__(self, shape):
                self.shape = shape

            def __array__(self, *args, **kwargs):
                raise ValueError("unstackable payload")

        with _server(workers=1) as server:
            gateway = ServingGateway(server, MODEL)
            images = _images(server, 1)
            # Straight into the queue: submit() would refuse it.
            broken = Future()
            gateway._queue.submit(
                Unstackable(images[0].shape), token=broken
            )
            with pytest.raises(DataflowError, match="could not be formed"):
                broken.result(timeout=10)
            healthy = gateway.submit(images[0])
            row = healthy.result(timeout=10).output
            result = gateway.finish()
        assert np.array_equal(row, _reference(images).output[0])
        assert result.completed == (1,)


class TestSupervisorProbe:
    def test_hang_detected_without_a_consumer(self):
        """The probe thread is autonomous: a hung shard is detected
        and redispatched while nobody sits in ``next_result`` — the
        event-driven refactor must not have coupled fault detection
        to the consumer's cadence."""
        from repro.serve import FaultSpec

        plan = FaultPlan(
            faults=(FaultSpec(kind="hang", job=0, seconds=60.0),)
        )
        with _server(
            workers=2, fault_plan=plan, job_deadline=0.3
        ) as server:
            server.start(MODEL)
            supervisor = server.supervisor
            supervisor.begin_stream()
            images = _images(server, 2)
            supervisor.submit(0, images)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if supervisor.health()["deadline_misses"] >= 1:
                    break
                time.sleep(0.05)
            health = supervisor.health()
            assert health["deadline_misses"] >= 1, (
                "the probe thread never noticed the hung shard"
            )
            # The redispatched job still completes and is delivered.
            job_id, _, record = supervisor.next_result()
            assert job_id == 0
            assert record["output"].shape[0] == 2

    def test_degraded_wake_reaches_a_parked_consumer(self):
        """Event-driven collection: a consumer already blocked inside
        ``next_result`` when the pool collapses must be woken by the
        degraded-job sentinel and serve the batch in-process — not sit
        until some poll interval expires."""
        from repro.serve import FaultSpec

        plan = FaultPlan(
            faults=(FaultSpec(kind="crash", job=None, attempt=None),)
        )
        with _server(
            workers=1, fault_plan=plan, max_restarts=0
        ) as server:
            server.start(MODEL)
            supervisor = server.supervisor
            supervisor.begin_stream()
            images = _images(server, 2)
            supervisor.submit(0, images)
            waited = {}

            def consume():
                waited["result"] = supervisor.next_result()

            consumer = threading.Thread(target=consume)
            consumer.start()
            consumer.join(timeout=30)
            assert not consumer.is_alive()
            job_id, shard_index, record = waited["result"]
            assert job_id == 0
            assert shard_index is None  # served by the fallback
            assert record["output"].shape[0] == 2
            assert supervisor.health()["degraded_jobs"] >= 1
