"""Sharded multi-process serving runtime.

The software analogue of the paper's scaling story (replicate small
area-efficient compute units instead of growing one): a
:class:`ShardedRunner` compiles a zoo model **once** in the parent
process (:func:`~repro.runtime.lowering.lower_model`) and ships the
lowered program to N worker processes, each holding its own
:class:`~repro.runtime.executor.BatchExecutor`.
:meth:`ShardedRunner.run` submits every image as one request to a
:class:`~repro.serve.gateway.ServingGateway`, whose dynamic-batching
queue (:class:`~repro.serve.queue.RequestQueue`) coalesces them into
batches for a :class:`~repro.serve.supervisor.ShardSupervisor`, which
scatters them round-robin across healthy shards; results are
reassembled by request sequence number.

Because every shard executes the *same* ``BatchExecutor`` code path as
the in-process :class:`~repro.runtime.runner.NetworkRunner`, and both
outputs and analytic cycle counts are independent of how a request
stream is split into batches (images are data-independent; per-stage
cycles are ``per_image_cycles * B``), a sharded run is bit-identical —
outputs *and* cycles — to ``NetworkRunner.run`` on the equivalent
batch.  That invariant survives faults: the supervisor respawns dead
and hung workers, redispatches their lost jobs (recomputed
deterministically), discards late duplicates, and degrades to
in-process execution through the same executor when the pool collapses
— so any fault schedule that leaves one live execution path still
yields the bit-identical stream.  The randomized differential suites
(``tests/serve/test_sharded_equivalence.py`` and the chaos suite
``tests/serve/test_fault_tolerance.py``) fuzz exactly that claim
across nets, batch sizes, worker counts and seeded fault plans.

Start methods: ``fork`` (default where available) inherits the compiled
program copy-on-write; ``spawn`` pickles the program to each worker.
Either way a worker computes burst maps only while constructing its
executor, which folds each stage's maps into one cycle line; the
batches it then runs compute none.  Job batches and results cross the
process boundary pickled through each shard's queues.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.errors import DataflowError
from repro.runtime.executor import BatchExecutor
from repro.runtime.lowering import CompiledNetwork
from repro.runtime.runner import NetworkResult, NetworkRunner
from repro.serve.gateway import ServingGateway
from repro.serve.supervisor import ShardSupervisor


@dataclass(frozen=True)
class ShardedResult(NetworkResult):
    """A :class:`NetworkResult` plus the shard-level dispatch record.

    Attributes:
        shard_cycles: per-shard total conv cycles, attributed to the
            shard that *completed* each job (fault-free runs sum to
            ``conv_cycles``; degraded-mode cycles live in
            ``health["degraded_cycles"]``).  The shards model
            *replicated* compute units running in parallel, so the
            request stream's simulated completion time is the max over
            shards — the makespan — not the sum.
        jobs: number of coalesced batches dispatched.
        health: supervisor/queue telemetry for the stream — restarts,
            retries, redispatched jobs, deadline misses, degraded-mode
            jobs/cycles, duplicate results discarded, worker errors,
            and the depth stats of the request queue.
    """

    shard_cycles: tuple = ()
    jobs: int = 0
    health: dict = field(default_factory=dict)

    @property
    def makespan_cycles(self) -> int:
        """Simulated cycles until the last shard finishes its share."""
        return max(self.shard_cycles) if self.shard_cycles else 0


def _worker_main(
    payload,
    shard_index,
    job_queue,
    result_queue,
    fault_plan=None,
) -> None:
    """Shard worker loop: execute dispatched batches until poisoned.

    Runs in a child process.  ``payload`` is ``(net, engine)`` — with
    the ``fork`` start method it arrives by inheritance, with ``spawn``
    it is pickled.  Every job is executed through the same
    :class:`BatchExecutor` the single-process runner uses; ``engine``
    is None so the executor accounts on the per-stage compute backends
    recorded in the compiled network at lowering.

    When a :class:`~repro.serve.faults.FaultPlan` is given, the worker
    consults it before every job and acts the scheduled fault out:
    ``crash`` hard-exits before reporting, ``hang`` sleeps without
    ever reporting the job, ``slow`` sleeps then reports normally and
    ``error`` reports a transient failure.  The plan is a pure
    function of (shard, job, attempt), so chaos runs replay exactly.

    Failures are reported with ``traceback.format_exc()`` — the full
    worker-side stack — so the parent's :class:`DataflowError` names
    the failing stage and line instead of a bare ``repr``.
    """
    net, engine = payload
    executor = BatchExecutor(net, engine)
    while True:
        job = job_queue.get()
        if job is None:
            break
        job_id, attempt, images = job
        fault = (
            fault_plan.fault_for(shard_index, job_id, attempt)
            if fault_plan is not None
            else None
        )
        if fault is not None:
            if fault.kind == "crash":
                # Crash *before* the result ships — models OOM kills
                # and native crashes; only the supervisor's liveness
                # probe can recover the job.
                os._exit(13)
            if fault.kind == "hang":
                time.sleep(fault.seconds)
                continue  # never report: a deadlocked shard
            if fault.kind == "error":
                result_queue.put(
                    (
                        shard_index,
                        job_id,
                        attempt,
                        None,
                        f"injected transient fault on shard "
                        f"{shard_index} (job {job_id}, attempt "
                        f"{attempt})",
                    )
                )
                continue
            time.sleep(fault.seconds)  # slow
        try:
            started = time.monotonic()
            record = executor.run_job(np.asarray(images))
            # Worker-side compute wall time: the gateway's latency
            # decomposition attributes this phase exactly, instead of
            # inferring it from parent-side round-trip timestamps.
            record["host_seconds"] = time.monotonic() - started
            result_queue.put(
                (shard_index, job_id, attempt, record, None)
            )
        except Exception:  # surface, don't hang the parent
            result_queue.put(
                (
                    shard_index,
                    job_id,
                    attempt,
                    None,
                    traceback.format_exc(),
                )
            )


class ShardedRunner:
    """Serve single-image requests across N supervised worker
    processes.

    The runner mirrors :class:`NetworkRunner`'s constructor knobs (it
    delegates compilation and input synthesis to one internally) and
    adds the serving-specific ones: worker count, dynamic-batching
    limits, the multiprocessing start method, and the fault-tolerance
    policy the supervisor enforces.

    Usage::

        with ShardedRunner(workers=4, scale=0.25, input_size=64) as srv:
            result = srv.run("mobilenet_v2", 32)   # 32 requests
        # result is bit-identical to NetworkRunner.run(..., 32)
    """

    def __init__(
        self,
        workers: int = 2,
        config=None,
        engine="tempus",
        scheduling: bool = True,
        scale: float = 1.0,
        input_size: "int | None" = None,
        code=None,
        max_batch: int = 8,
        max_wait: float = 0.002,
        start_method: "str | None" = None,
        precision=None,
        fault_plan=None,
        job_deadline: "float | None" = None,
        max_restarts: int = 3,
        min_live: int = 1,
        max_attempts: int = 5,
        fused: bool = False,
    ) -> None:
        """Serving-specific args (see :class:`NetworkRunner` for the
        rest):

        fused: accepted and ignored, like
            :class:`NetworkRunner`'s: workers and the degraded
            in-process fallback run the executor's one batched path.
        fault_plan: a :class:`~repro.serve.faults.FaultPlan` every
            worker consults (deterministic chaos injection).
        job_deadline: seconds a dispatched batch may stay in flight
            before its shard is declared hung and the batch is
            redispatched (None disables hang detection; required when
            the fault plan can schedule hangs).
        max_restarts: per-stream restart budget per shard (respawns
            back off exponentially, see
            :class:`~repro.serve.supervisor.ShardSupervisor`).
        min_live: pool floor — below it the stream degrades to
            in-process execution instead of failing.
        max_attempts: dispatch attempts per batch before the
            supervisor stops trusting the pool with it.
        """
        if workers < 1:
            raise DataflowError("workers must be >= 1")
        if (
            fault_plan is not None
            and job_deadline is None
            and (
                "hang" in getattr(fault_plan, "kinds", ())
                and getattr(fault_plan, "rate", 0.0) > 0.0
                or any(
                    spec.kind == "hang"
                    for spec in getattr(fault_plan, "faults", ())
                )
            )
        ):
            raise DataflowError(
                "a fault plan that can schedule 'hang' faults needs a "
                "job_deadline — hung shards are only detectable by "
                "deadline"
            )
        self.workers = workers
        self.max_batch = max_batch
        self.max_wait = max_wait
        self.fault_plan = fault_plan
        self.job_deadline = job_deadline
        self.max_restarts = max_restarts
        self.min_live = min_live
        self.max_attempts = max_attempts
        self._runner = NetworkRunner(
            config,
            engine=engine,
            scheduling=scheduling,
            scale=scale,
            input_size=input_size,
            code=code,
            precision=precision,
        )
        methods = multiprocessing.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in methods else methods[0]
        elif start_method not in methods:
            raise DataflowError(
                f"start method {start_method!r} unavailable "
                f"(have: {', '.join(methods)})"
            )
        self._ctx = multiprocessing.get_context(start_method)
        self.start_method = start_method
        self._model: "str | None" = None
        self._supervisor: "ShardSupervisor | None" = None

    # -- lifecycle -----------------------------------------------------
    @property
    def engine(self) -> str:
        return self._runner.engine

    @property
    def profile(self):
        """The resolved per-layer precision profile served."""
        return self._runner.profile

    @property
    def supervisor(self) -> "ShardSupervisor | None":
        """The live shard supervisor (None before :meth:`start`)."""
        return self._supervisor

    def compile(self, model_name: str) -> CompiledNetwork:
        """Lower (and cache) one zoo model in the parent process."""
        return self._runner.compile(model_name)

    def synthesize_batch(
        self, model_name: str, batch_size: int
    ) -> np.ndarray:
        return self._runner.synthesize_batch(model_name, batch_size)

    def start(self, model_name: str) -> None:
        """Spawn the supervised shard pool for one model (compile
        happens here, once, in the parent)."""
        if self._supervisor is not None:
            if self._model == model_name:
                return
            self.stop()
        net = self.compile(model_name)
        # engine=None: workers account on the per-stage backends the
        # compiled network carries (the runner's backend profile).
        payload = (net, None)
        # The degraded path runs the parent's own executor — the same
        # BatchExecutor code path the shards run, so degraded batches
        # stay bit-identical in outputs and cycles.  It is built on the
        # first degraded job: a healthy pool never needs it.
        runner = self._runner

        def fallback(images):
            started = time.monotonic()
            record = runner.executor(model_name).run_job(images)
            record["host_seconds"] = time.monotonic() - started
            return record
        self._supervisor = ShardSupervisor(
            self._ctx,
            payload,
            self.workers,
            _worker_main,
            fault_plan=self.fault_plan,
            job_deadline=self.job_deadline,
            max_restarts=self.max_restarts,
            min_live=self.min_live,
            max_attempts=self.max_attempts,
            fallback=fallback,
        )
        self._model = model_name

    def stop(self) -> None:
        """Drain and join the shard pool.  Idempotent: safe to call
        repeatedly and after partial failures (the supervisor guards
        every teardown step)."""
        supervisor = self._supervisor
        self._supervisor = None
        self._model = None
        if supervisor is not None:
            supervisor.stop()

    def close(self) -> None:
        self.stop()

    def __enter__(self) -> "ShardedRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- serving -------------------------------------------------------
    def run(
        self, model_name: str, batch: "int | np.ndarray"
    ) -> NetworkResult:
        """Serve a request stream and return a :class:`ShardedResult`.

        Args:
            model_name: zoo model name.
            batch: an int B (B synthesized requests — the same images
                ``NetworkRunner.run(model, B)`` would synthesize), a
                single (C, H, W) image, or a (B, C, H, W) tensor whose
                images are submitted as B independent requests.

        Every request goes through one
        :class:`~repro.serve.gateway.ServingGateway` stream that
        coalesces up to ``max_batch``/``max_wait`` (no eager
        dispatch), and the drained :class:`GatewayResult` becomes the
        :class:`ShardedResult`.  Its output rows are in
        request-submission order and its cycle totals are bit-identical
        to the single-process batched run over the same images —
        including under injected or real faults, as long as the
        supervisor retains one live execution path (worst case: the
        in-process degraded fallback).

        Raises:
            DataflowError: the stream failed, or a request's ticket
                failed (the message names the unserved sequence
                numbers).

        A model or batch that fails validation raises before any
        request is submitted and leaves the pool as it was; once the
        stream starts, the shard pool is released on every error path.
        A successful run leaves the pool warm for the next stream.
        """
        net = self.compile(model_name)
        images = self._runner._as_batch(net, model_name, batch)
        try:
            gateway = ServingGateway(self, model_name, eager=False)
            try:
                tickets = [gateway.submit(image) for image in images]
            finally:
                result = gateway.finish()
            completed = set(result.completed)
            lost = [
                seq for seq in range(len(tickets)) if seq not in completed
            ]
            if lost:
                raise DataflowError(
                    f"{len(lost)} of {len(tickets)} requests were not "
                    f"served (sequence numbers {lost}): "
                    f"{tickets[lost[0]].exception()}"
                )
        except BaseException:
            # Release the pool on *every* error path (including
            # KeyboardInterrupt) so no worker or queue feeder thread
            # outlives a failed stream.
            self.stop()
            raise
        health = result.health
        if self.fault_plan is not None:
            health["fault_plan"] = self.fault_plan.describe()
        return ShardedResult(
            model=result.model,
            engine=self.engine,
            batch_size=result.requests,
            output=result.output,
            stages=result.stages,
            conv_cycles=result.conv_cycles,
            macs=net.batch_macs(images.shape),
            shard_cycles=result.shard_cycles,
            jobs=result.jobs,
            health=health,
        )
