"""Serving gateway: pipelined dispatch over the shard pool.

The gateway is the one path a request stream takes through the
supervised shard pool.  :meth:`~repro.serve.sharded.ShardedRunner.run`
drains a whole batch through it (coalescing, ``eager=False``), and live
traffic — any thread or coroutine — submits requests as they arrive.  Three
concerns run **concurrently** on two gateway threads plus the callers,
so no worker ever waits on the parent:

* **submit** (any thread; :meth:`ServingGateway.submit_async` is a thin
  asyncio wrapper) — :meth:`ServingGateway.submit` validates one image
  against the network input (shape, integer dtype, precision range;
  a malformed request fails only its own ticket), enqueues it into
  the :class:`~repro.serve.queue.RequestQueue` (admission control
  included: block / reject / shed) and returns a
  :class:`concurrent.futures.Future` resolving to a
  :class:`GatewayResponse`;
* **dispatch** (gateway thread) — pulls coalesced batches and ships
  them to the :class:`~repro.serve.supervisor.ShardSupervisor`, whose
  shard queues carry them pickled.  While the pool has idle capacity
  the pull is *eager* (no coalescing window); once every worker is
  busy it coalesces up to ``max_batch``/``max_wait`` — so batch N+1
  is being coalesced and pickled onto a shard queue while batch N
  computes;
* **collect** (gateway thread) — blocks on
  :meth:`~repro.serve.supervisor.ShardSupervisor.next_result`,
  reassembles outputs by request sequence number and resolves the
  response futures, while the dispatcher keeps feeding the pool.

Every response carries a :class:`LatencyBreakdown`: queue wait
(arrival → batch close), dispatch (batch close → handed to the
transport), compute (worker-side executor wall time) and reassembly
(result receipt → future resolved).  Phases never overlap and gaps
(transport queueing, a busy worker's backlog) are deliberately
unattributed, so the decomposition always sums to at most the total.

Bit-identity: the gateway only changes *when* batches are formed and
how their results are awaited — every batch still runs the same
deterministic ``BatchExecutor``, and outputs/cycles are independent of
batch split.  A drained stream's :class:`GatewayResult` is therefore
bit-identical (outputs AND cycles) to
:meth:`~repro.runtime.runner.NetworkRunner.run` over the same images,
under any arrival schedule, any worker count, and any fault plan that
leaves one live execution path (``tests/serve/test_gateway.py`` pins
this under Poisson/burst arrivals and 25% injected faults).
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections.abc import Mapping
from concurrent.futures import Future
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from repro.errors import DataflowError, PrecisionError
from repro.runtime.executor import StageResult
from repro.serve.queue import Request, RequestQueue

#: The per-response latency phases, in stream order.
LATENCY_PHASES = ("queue_wait", "dispatch", "compute", "reassembly")


@dataclass(frozen=True)
class LatencyBreakdown:
    """Wall-time decomposition of one response (seconds).

    Attributes:
        queue_wait: arrival (``submit()``) → the coalesced batch
            closed.
        dispatch: batch close → handed to the supervisor (the shard
            queue's feeder thread pickles the batch tensor after the
            hand-off, inside the unattributed gap).
        compute: worker-side executor wall time for the batch (shared
            by every request in it), clamped into the in-flight window
            so phases can never overlap.
        reassembly: result received in the parent → response future
            resolved (output row split + bookkeeping).
        total: arrival → response resolved.  Unattributed gaps
            (transport queueing, waiting behind other batches on a
            busy worker) keep ``sum(phases) <= total``.
    """

    queue_wait: float
    dispatch: float
    compute: float
    reassembly: float
    total: float

    def as_dict(self) -> dict:
        return {
            "queue_wait": self.queue_wait,
            "dispatch": self.dispatch,
            "compute": self.compute,
            "reassembly": self.reassembly,
            "total": self.total,
        }


@dataclass(frozen=True)
class GatewayResponse:
    """One completed request: its output row plus serving telemetry."""

    seq: int
    output: np.ndarray
    job: int
    shard: "int | None"
    latency: LatencyBreakdown


@dataclass(frozen=True)
class GatewayResult:
    """Aggregate record of one drained gateway stream.

    ``output`` stacks the completed requests' rows in submission
    (sequence) order — as a 1-D object array of rows when a
    dynamic-token stream mixed sequence lengths.  Under the "block"
    admission policy that is every request
    :meth:`ServingGateway.submit` accepted (a malformed one is refused
    before it takes a sequence number), so the tensor — and
    ``conv_cycles`` / ``stages`` — is directly comparable to the
    single-process
    :meth:`~repro.runtime.runner.NetworkRunner.run` reference.

    ``stages`` holds one :class:`~repro.runtime.executor.StageResult` per
    executed stage, with cycles summed over every job and the leading
    output dimension set to the completed request count (the per-job
    batch split is a dispatch detail).
    """

    model: str
    requests: int
    jobs: int
    output: np.ndarray
    completed: tuple
    conv_cycles: int
    shard_cycles: tuple
    stages: tuple
    health: dict
    responses: tuple

    @property
    def cache(self) -> Mapping:
        """Compatibility alias of the retired burst-map counters:
        always empty, since runs compute no burst maps."""
        return MappingProxyType({})

    @property
    def makespan_cycles(self) -> int:
        """Simulated cycles until the last shard finishes its share."""
        return max(self.shard_cycles) if self.shard_cycles else 0


def _stack_rows(rows: "list[np.ndarray]") -> np.ndarray:
    """Stack response rows; rows of different shapes (a dynamic-token
    stream of mixed lengths) go into a 1-D object array instead."""
    if not rows:
        return np.zeros((0,), dtype=np.int64)
    if len({row.shape for row in rows}) == 1:
        return np.stack(rows)
    stacked = np.empty(len(rows), dtype=object)
    for index, row in enumerate(rows):
        stacked[index] = row
    return stacked


def _fail_tickets(requests: "list[Request]", error: Exception) -> None:
    """Fail every still-unresolved response future of ``requests``."""
    for request in requests:
        ticket = request.token
        if ticket is not None and not ticket.done():
            ticket.set_exception(error)


class _Job:
    """Parent-side record of one dispatched batch."""

    __slots__ = ("requests", "closed_at", "submitted_at")

    def __init__(self, requests: "list[Request]", closed_at: float):
        self.requests = requests
        self.closed_at = closed_at
        self.submitted_at = closed_at


class ServingGateway:
    """Pipelined front-end over a supervised shard pool: a dispatch
    thread and a collect thread, with :meth:`submit_async` as an
    optional asyncio wrapper over the thread-safe :meth:`submit`.

    One gateway instance serves one request stream: construct it (the
    runner's pool starts/warms and a fresh supervisor stream begins),
    submit requests from any thread or coroutine, then :meth:`finish`
    to drain and collect the aggregate :class:`GatewayResult`.  The
    underlying :class:`~repro.serve.sharded.ShardedRunner` stays warm
    across gateways, so back-to-back streams pay no respawn/recompile
    cost.

    Usage::

        runner = ShardedRunner(workers=4, scale=0.25, input_size=64)
        gateway = ServingGateway(runner, "mobilenet_v2")
        tickets = [gateway.submit(img) for img in images]
        responses = [ticket.result() for ticket in tickets]
        result = gateway.finish()   # bit-identical to NetworkRunner
        runner.stop()

    Args:
        runner: the shard pool to serve through (started here).
        model_name: zoo model to serve.
        max_batch / max_wait / max_pending / admission: request-queue
            knobs; default to the runner's settings.  ``"shed"``
            admission evicts the oldest pending request when full —
            its future fails with :class:`DataflowError`.
        eager: dispatch pending requests immediately while the pool
            has idle capacity (jobs in flight < workers), coalescing
            only under backpressure.  Purely a latency policy — batch
            split cannot affect outputs or cycles.
    """

    def __init__(
        self,
        runner,
        model_name: str,
        *,
        max_batch: "int | None" = None,
        max_wait: "float | None" = None,
        max_pending: "int | None" = None,
        admission: "str | None" = None,
        eager: bool = True,
    ) -> None:
        runner.start(model_name)
        self._runner = runner
        self._model = model_name
        self._net = runner.compile(model_name)
        self._supervisor = runner.supervisor
        self._supervisor.begin_stream()
        self.eager = bool(eager)
        self._queue = RequestQueue(
            max_batch=(
                runner.max_batch if max_batch is None else max_batch
            ),
            max_wait=(
                runner.max_wait if max_wait is None else max_wait
            ),
            max_pending=(
                runner.max_pending
                if max_pending is None
                else max_pending
            ),
            admission=(
                runner.admission if admission is None else admission
            ),
            on_evict=self._evicted,
        )
        self._lock = threading.Lock()
        self._jobs: "dict[int, _Job]" = {}
        self._dispatched = 0
        self._collected = 0
        self._responses: "dict[int, GatewayResponse]" = {}
        self._errors: "list[BaseException]" = []
        self._need = threading.Semaphore(0)
        self._drained = threading.Event()
        self._result: "GatewayResult | None" = None
        self._conv_cycles = 0
        self._shard_cycles = [0] * self._supervisor.workers
        self._degraded_cycles = 0
        self._stage_cycles: "list[int] | None" = None
        self._stage_meta: "tuple | None" = None
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop,
            daemon=True,
            name="gateway-dispatch",
        )
        self._collector = threading.Thread(
            target=self._collect_loop,
            daemon=True,
            name="gateway-collect",
        )
        self._dispatcher.start()
        self._collector.start()

    # -- front-end -----------------------------------------------------
    def submit(self, image: np.ndarray) -> Future:
        """Enqueue one request; returns a future resolving to its
        :class:`GatewayResponse`.

        Thread-safe.  The image must be a (C, H, W) integer array of
        the network's input shape with every value inside the input
        precision; otherwise the returned future fails with
        :class:`DataflowError` and the request never enters the queue
        (it takes no sequence number), so the requests around it are
        served as if it had never been sent.  Under "block" admission a
        full queue makes this call wait (backpressure); under "reject"
        it raises :class:`DataflowError`; under "shed" it may fail the
        *oldest* pending request's future instead.
        """
        ticket: Future = Future()
        try:
            image = self._check_request(image)
        except DataflowError as error:
            ticket.set_exception(error)
            return ticket
        self._queue.submit(image, token=ticket)
        return ticket

    def _check_request(self, image) -> np.ndarray:
        image = np.asarray(image)
        if image.ndim != 3:
            raise DataflowError(
                f"request shape {image.shape}: expected one (C, H, W) "
                f"image of shape {tuple(self._net.input_shape)}"
            )
        if not np.issubdtype(image.dtype, np.integer):
            raise DataflowError(
                f"request dtype {image.dtype}: expected integers"
            )
        try:
            return self._net.check_batch(image[None])[0]
        except PrecisionError as error:
            raise DataflowError(f"request rejected: {error}") from None

    async def submit_async(self, image: np.ndarray) -> GatewayResponse:
        """Coroutine front-end: submit (off-loop, so "block" admission
        backpressure never stalls the event loop) and await the
        response."""
        loop = asyncio.get_running_loop()
        ticket = await loop.run_in_executor(None, self.submit, image)
        return await asyncio.wrap_future(ticket)

    def stats(self) -> dict:
        """Live queue/admission telemetry snapshot."""
        return self._queue.stats()

    def _evicted(self, request: Request) -> None:
        _fail_tickets(
            [request],
            DataflowError(
                f"request {request.seq} shed by admission control "
                "(queue full; oldest-first shed policy)"
            ),
        )

    # -- pipeline threads ----------------------------------------------
    def _idle_capacity(self) -> bool:
        with self._lock:
            in_flight = self._dispatched - self._collected
        return in_flight < self._supervisor.workers

    def _dispatch_loop(self) -> None:
        """Pull coalesced batches and feed the pool — concurrently
        with collection, so the next batch crosses the transport while
        earlier ones compute."""
        job_id = 0

        def eager_now() -> bool:
            # Re-evaluated on every wake inside the coalescing window
            # (the collector pokes the queue when a batch completes),
            # so a wait that started under backpressure still ships
            # the moment capacity frees.  Lock order is queue ->
            # gateway here; poke() must therefore never be called
            # while holding the gateway lock.
            return self.eager and self._idle_capacity()

        try:
            while True:
                batch = self._queue.next_batch(eager=eager_now)
                if batch is None:
                    return
                closed_at = time.monotonic()
                try:
                    images = np.stack(
                        [request.image for request in batch]
                    )
                except Exception as error:
                    # Only this batch is lost: its tickets fail now,
                    # and the stream keeps going.
                    _fail_tickets(
                        batch,
                        DataflowError(
                            f"requests {batch[0].seq}..{batch[-1].seq}: "
                            f"batch could not be formed: {error!r}"
                        ),
                    )
                    continue
                job = _Job(batch, closed_at)
                with self._lock:
                    # Registered before submit: the collector may
                    # absorb this job's result (woken by an earlier
                    # job's token) the moment the worker answers.
                    self._jobs[job_id] = job
                    self._dispatched += 1
                self._supervisor.submit(job_id, images)
                job.submitted_at = time.monotonic()
                self._need.release()
                job_id += 1
        except BaseException as error:
            with self._lock:
                self._errors.append(error)
            self._need.release()  # wake the collector to fail fast

    def _collect_loop(self) -> None:
        """Reassemble results as they complete.  One semaphore token
        per dispatched job (plus one drain token) keeps this loop and
        ``next_result``'s nothing-in-flight contract in step."""
        while True:
            self._need.acquire()
            with self._lock:
                if self._errors:
                    return
                done = (
                    self._drained.is_set()
                    and self._collected == self._dispatched
                )
                pending = self._dispatched - self._collected
            if done:
                return
            if pending == 0:
                continue  # stale wake; a real token follows
            try:
                job_id, shard_index, record = (
                    self._supervisor.next_result()
                )
            except BaseException as error:
                with self._lock:
                    self._errors.append(error)
                return
            self._absorb(job_id, shard_index, record)

    def _absorb(self, job_id, shard_index, record) -> None:
        received = time.monotonic()
        with self._lock:
            job = self._jobs.pop(job_id)
            self._collected += 1
            self._conv_cycles += record["conv_cycles"]
            if shard_index is None:
                self._degraded_cycles += record["conv_cycles"]
            else:
                self._shard_cycles[shard_index] += (
                    record["conv_cycles"]
                )
            if self._stage_cycles is None:
                self._stage_cycles = list(record["stage_cycles"])
                self._stage_meta = record["stage_meta"]
            else:
                for position, cycles in enumerate(
                    record["stage_cycles"]
                ):
                    self._stage_cycles[position] += cycles
        output = record["output"]
        compute = float(record.get("host_seconds", 0.0))
        # Clamp the worker-side measurement into the parent-observed
        # in-flight window: phases then never overlap, so the
        # decomposition can never sum past the total.
        compute = min(
            compute, max(received - job.submitted_at, 0.0)
        )
        resolved: "list[tuple]" = []
        delivered = time.monotonic()
        reassembly = max(delivered - received, 0.0)
        for row, request in enumerate(job.requests):
            latency = LatencyBreakdown(
                queue_wait=max(
                    job.closed_at - request.arrived, 0.0
                ),
                dispatch=max(
                    job.submitted_at - job.closed_at, 0.0
                ),
                compute=compute,
                reassembly=reassembly,
                total=max(delivered - request.arrived, 0.0),
            )
            response = GatewayResponse(
                seq=request.seq,
                output=output[row],
                job=job_id,
                shard=shard_index,
                latency=latency,
            )
            resolved.append((request.token, response))
        with self._lock:
            for _, response in resolved:
                self._responses[response.seq] = response
        # Capacity just freed: wake a dispatcher waiting out its
        # coalescing window so it re-checks eagerness.  Outside the
        # gateway lock (poke takes the queue lock; the eager predicate
        # takes queue -> gateway, so gateway -> queue would deadlock).
        self._queue.poke()
        for ticket, response in resolved:
            if ticket is not None and not ticket.done():
                ticket.set_result(response)

    # -- drain ---------------------------------------------------------
    def finish(self) -> GatewayResult:
        """Close the stream, drain every in-flight batch and return
        the aggregate result.  Idempotent; call after every submitted
        request's future has been awaited (or was failed by
        admission control)."""
        if self._result is not None:
            return self._result
        self._queue.close()
        self._dispatcher.join()
        self._drained.set()
        self._need.release()
        self._collector.join()
        health = self._supervisor.end_stream()
        if self._errors:
            self._fail_pending()
            error = self._errors[0]
            raise DataflowError(
                f"gateway stream failed: {error!r}"
            ) from error
        with self._lock:
            responses = tuple(
                self._responses[seq]
                for seq in sorted(self._responses)
            )
            output = _stack_rows([r.output for r in responses])
            health["degraded_cycles"] = int(self._degraded_cycles)
            health["queue"] = self._queue.stats()
            self._result = GatewayResult(
                model=self._net.name,
                requests=len(responses),
                jobs=self._dispatched,
                output=output,
                completed=tuple(r.seq for r in responses),
                conv_cycles=int(self._conv_cycles),
                shard_cycles=tuple(self._shard_cycles),
                stages=self._stage_records(len(responses)),
                health=health,
                responses=responses,
            )
        return self._result

    def _stage_records(self, requests: int) -> tuple:
        """Stream-total stage records (call under the gateway lock)."""
        if self._stage_meta is None:
            return ()
        return tuple(
            StageResult(
                name=name,
                kind=kind,
                output_shape=(requests,) + tuple(shape[1:]),
                conv_cycles=cycles,
            )
            for (name, kind, shape), cycles in zip(
                self._stage_meta, self._stage_cycles
            )
        )

    def _fail_pending(self) -> None:
        """Error path: fail every unresolved ticket so no submitter
        waits on a stream that died."""
        error = DataflowError(
            f"gateway stream for {self._model!r} failed; request "
            "was never served"
        )
        while True:
            batch = self._queue.next_batch(eager=True)
            if batch is None:
                break
            _fail_tickets(batch, error)
        with self._lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            _fail_tickets(job.requests, error)
