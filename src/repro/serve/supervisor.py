"""Supervised, self-healing shard pool for the serving runtime.

:class:`ShardSupervisor` owns the worker processes that
:class:`~repro.serve.sharded.ShardedRunner` serves through, and turns
the fail-fast pool of PR 3 (one dead shard aborted the whole request
stream) into a tier that survives faults:

* **Detection** — a shard is unhealthy when its process died
  (``is_alive()`` false with jobs still in flight) *or* when a
  dispatched job misses its deadline (the liveness probe that catches
  hung workers, which ``is_alive()`` alone never would).
* **Recovery** — unhealthy shards are killed and respawned with capped
  exponential backoff; a shard that exhausts its restart budget for
  the stream is retired.  Jobs lost with a shard are **redispatched**
  to healthy shards; transient worker errors are **retried**.  Every
  dispatch carries an attempt number and completed job ids are
  remembered, so late duplicate results (a "hung" worker that finally
  answers after its job was redispatched) are discarded, never
  double-counted.
* **Degradation** — when the pool collapses below a configurable floor
  (``min_live`` non-retired shards), remaining jobs execute in-process
  through the parent's own :class:`~repro.runtime.executor
  .BatchExecutor` instead of failing the stream.  The fallback runs
  the exact same executor code path, so degraded batches stay
  bit-identical in outputs and cycles.

Determinism: recovery *timing* depends on the host, but every
execution path — shard, redispatched shard, in-process fallback — runs
the same deterministic ``BatchExecutor``, so for any fault schedule
that leaves at least one live path the stream's outputs and cycle
totals are bit-identical to the single-process
:meth:`~repro.runtime.runner.NetworkRunner.run`.  The
chaos-differential suite (``tests/serve/test_fault_tolerance.py``)
pins exactly that invariant.

Collection is **event-driven**: :meth:`ShardSupervisor.next_result`
blocks on the in-process result funnel with no timeout — a finished
job wakes it at thread-wakeup cost, never poll granularity.  Health
probing (respawn-due / dead / hung detection) runs on its own
background thread every :data:`POLL_INTERVAL` seconds, decoupled from
collection, so faults are detected and recovered even while the
consumer is busy reassembling elsewhere (the pipelined gateway) or
not collecting at all.  Degraded jobs and probe-thread failures reach
the consumer through sentinel messages on the same funnel.
"""

from __future__ import annotations

import queue as thread_queue
import time
from collections import deque
from queue import Empty
from threading import Event, RLock, Thread

from repro.errors import DataflowError

#: Telemetry counters a supervisor tracks per request stream.  These
#: flow into ``ShardedResult.health``; the serving benchmark requires
#: restarts + redispatched + retries >= 1 at every injected fault rate.
HEALTH_COUNTERS = (
    "restarts",
    "retries",
    "redispatched",
    "deadline_misses",
    "degraded_jobs",
    "duplicates_discarded",
    "worker_errors",
)

#: Seconds between health probes (respawn-due, dead and hung shards).
POLL_INTERVAL = 0.05

#: Base respawn delay in seconds, doubled per restart of a shard, and
#: its cap.
RESTART_BACKOFF = 0.05
BACKOFF_CAP = 1.0

#: Funnel sentinel: a job moved to the degraded list — wakes a
#: consumer blocked in :meth:`ShardSupervisor.next_result` so the
#: in-process fallback runs promptly.  Identity-compared; a worker
#: message is always a 5-tuple and can never alias it.
_DEGRADED_WAKE = ("degraded-wake",)

#: Funnel message head for an exception escaping the probe thread.
_PROBE_ERROR = "probe-error"


class _Shard:
    """One supervised worker slot (process + its private queues).

    Every process *incarnation* gets its own result queue, read by its
    own daemon pump thread: a worker that dies mid-write (an injected
    crash, an OOM kill, an external ``terminate()``) can leave a
    **truncated message** in its result pipe, and a blocking read of
    that pipe never returns.  With a shared result queue one torn
    write would poison the whole stream; per-incarnation queues strand
    only that incarnation's pump thread, and the job is recovered by
    the deadline/death machinery.
    """

    __slots__ = (
        "index",
        "process",
        "queue",
        "result_queue",
        "reader_stop",
        "restarts",
        "in_flight",
        "retired",
        "respawn_at",
        "force_killed",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.process = None
        self.queue = None
        self.result_queue = None
        self.reader_stop: "Event | None" = None
        self.restarts = 0
        self.in_flight: set = set()
        self.retired = False
        self.respawn_at: "float | None" = None
        self.force_killed = False


class ShardSupervisor:
    """Dispatch jobs across supervised shard workers.

    Args:
        ctx: multiprocessing context (fork/spawn) the pool runs on.
        payload: pickled/inherited worker payload (compiled network).
        workers: shard count (>= 1).
        worker_main: worker entry point — called as
            ``worker_main(payload, shard_index, job_queue,
            result_queue, fault_plan)``.
        fault_plan: optional :class:`~repro.serve.faults.FaultPlan`
            every worker consults (deterministic chaos injection).
        job_deadline: seconds a dispatched job may stay in flight
            before its shard is declared hung and the job is
            redispatched; None disables hang detection (process death
            is still detected).
        max_restarts: restart budget per shard per request stream;
            a shard that exceeds it is retired for the stream.  A
            respawn waits :data:`RESTART_BACKOFF`, doubled per restart
            up to :data:`BACKOFF_CAP`.
        min_live: pool floor — when fewer than this many non-retired
            shards remain, the stream degrades to in-process
            execution instead of failing.
        max_attempts: dispatch attempts per job before the supervisor
            stops trusting the pool with it (lost jobs then degrade
            in-process; jobs that *errored* every attempt raise, with
            the worker traceback).
        fallback: callable ``images -> record`` executing a job
            in-process (the degraded path); None disables degradation
            and exhausted streams raise instead.

    Job batches and result tensors travel pickled through each
    shard's ``multiprocessing`` queues.
    """

    def __init__(
        self,
        ctx,
        payload,
        workers: int,
        worker_main,
        *,
        fault_plan=None,
        job_deadline: "float | None" = None,
        max_restarts: int = 3,
        min_live: int = 1,
        max_attempts: int = 5,
        fallback=None,
    ) -> None:
        if workers < 1:
            raise DataflowError("workers must be >= 1")
        if max_restarts < 0:
            raise DataflowError("max_restarts must be >= 0")
        if min_live < 0 or min_live > workers:
            raise DataflowError(
                f"min_live must be in [0, workers={workers}]"
            )
        if max_attempts < 1:
            raise DataflowError("max_attempts must be >= 1")
        if job_deadline is not None and job_deadline <= 0:
            raise DataflowError("job_deadline must be positive")
        self._ctx = ctx
        self._payload = payload
        self._worker_main = worker_main
        self.fault_plan = fault_plan
        self.job_deadline = job_deadline
        self.max_restarts = max_restarts
        self.min_live = min_live
        self.max_attempts = max_attempts
        self._fallback = fallback
        self._lock = RLock()
        # Parent-side result funnel.  Pump threads forward complete
        # worker messages into this (plain, in-process) queue, which
        # cannot be poisoned by a worker dying mid-write.
        self._results: thread_queue.Queue = thread_queue.Queue()
        self._shards = [_Shard(index) for index in range(workers)]
        for shard in self._shards:
            self._start_shard(shard)
        self._rr = 0
        self._stopped = False
        # Per-stream job state.
        self._payloads: dict = {}  # job id -> images (until done)
        self._attempt: dict = {}  # job id -> current attempt
        self._owner: dict = {}  # job id -> shard index
        self._deadlines: dict = {}  # job id -> monotonic deadline
        self._last_error: dict = {}  # job id -> last worker traceback
        self._errored: dict = {}  # job id -> consecutive error results
        self._degraded: deque = deque()  # jobs awaiting in-process run
        self._done: set = set()
        self.stats = {counter: 0 for counter in HEALTH_COUNTERS}
        # Respawns made while no stream is open (before the first
        # begin_stream, or after an end_stream): the probe thread
        # replaces dead workers at any time, and these belong to the
        # next stream's health.
        self._streaming = False
        self._idle_restarts = 0
        # Autonomous health probing: recovery cadence must not depend
        # on how often (or whether) the consumer calls next_result.
        self._probe_stop = Event()
        self._probe_thread = Thread(
            target=self._probe_loop,
            daemon=True,
            name="shard-probe",
        )
        self._probe_thread.start()

    def _probe_loop(self) -> None:  # pragma: no cover - thread body
        """Run the health probe every :data:`POLL_INTERVAL` seconds until
        :meth:`stop`.  A probe failure (e.g. a poisoned job raising on
        redispatch) is funneled to the consumer and ends the loop."""
        while not self._probe_stop.wait(POLL_INTERVAL):
            try:
                self._probe()
            except BaseException as error:
                self._results.put((_PROBE_ERROR, error))
                return

    # -- lifecycle -----------------------------------------------------
    @property
    def workers(self) -> int:
        return len(self._shards)

    @property
    def processes(self) -> list:
        """Live process handles (diagnostics/tests)."""
        with self._lock:
            return [
                shard.process
                for shard in self._shards
                if shard.process is not None
            ]

    @property
    def live_shards(self) -> int:
        """Non-retired shards (running or cooling down to respawn)."""
        with self._lock:
            return sum(
                1 for shard in self._shards if not shard.retired
            )

    def _start_shard(self, shard: _Shard) -> None:
        """(Re)spawn one shard on fresh job/result queues."""
        if shard.queue is None:
            shard.queue = self._ctx.Queue()
        self._stop_reader(shard)
        shard.result_queue = self._ctx.Queue()
        shard.reader_stop = Event()
        shard.process = self._ctx.Process(
            target=self._worker_main,
            args=(
                self._payload,
                shard.index,
                shard.queue,
                shard.result_queue,
                self.fault_plan,
            ),
            daemon=True,
        )
        shard.process.start()
        Thread(
            target=self._pump,
            args=(shard.result_queue, shard.reader_stop),
            daemon=True,
            name=f"shard-{shard.index}-results",
        ).start()
        shard.respawn_at = None
        shard.force_killed = False

    def _pump(
        self, result_queue, stop: Event
    ) -> None:  # pragma: no cover - thread body
        """Forward one incarnation's worker messages into the parent
        funnel.  Runs as a daemon thread; a truncated message from a
        worker killed mid-write blocks only this thread, never the
        supervisor."""
        while not stop.is_set():
            try:
                message = result_queue.get(timeout=0.2)
            except Empty:
                continue
            except Exception:
                return  # queue closed/broken during teardown
            self._results.put(message)

    @staticmethod
    def _stop_reader(shard: _Shard) -> None:
        if shard.reader_stop is not None:
            shard.reader_stop.set()

    def begin_stream(self) -> None:
        """Reset per-stream health state (telemetry counters, restart
        budgets, retired shards) before serving a new request stream.
        The stream's ``restarts`` start at the respawns the probe made
        while no stream was open, so a worker replaced between streams
        shows in the next stream's health.

        Retired shards get a fresh queue and an immediate respawn, so
        every stream starts with the full configured pool.
        """
        with self._lock:
            if self._payloads or any(
                shard.in_flight for shard in self._shards
            ):
                raise DataflowError(
                    "begin_stream() with jobs still in flight"
                )
            self.stats = {counter: 0 for counter in HEALTH_COUNTERS}
            self.stats["restarts"] = self._idle_restarts
            self._idle_restarts = 0
            self._streaming = True
            self._attempt.clear()
            self._owner.clear()
            self._deadlines.clear()
            self._last_error.clear()
            self._errored.clear()
            self._degraded = deque()
            self._done = set()
            for shard in self._shards:
                shard.restarts = 0
                if shard.retired:
                    shard.retired = False
                    self._discard_queue(shard)
                    self._start_shard(shard)

    def end_stream(self) -> dict:
        """Close the stream's health window and return its final
        :meth:`health` snapshot: respawns after this count toward the
        next stream."""
        with self._lock:
            self._streaming = False
            return self.health()

    def stop(self) -> None:
        """Drain and join the pool.  Idempotent and exception-safe:
        every queue/process teardown step is individually guarded, so
        a partial failure never leaves a second call re-walking closed
        queues, and force-killed workers get ``cancel_join_thread()``
        so their queue feeder threads cannot block interpreter exit."""
        self._probe_stop.set()
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            shards = list(self._shards)
            self._shards = []
        for shard in shards:
            if shard.queue is not None and shard.process is not None:
                try:
                    shard.queue.put_nowait(None)
                except Exception:
                    pass
        for shard in shards:
            process = shard.process
            if process is None:
                continue
            try:
                process.join(timeout=10)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=5)
                    shard.force_killed = True
            except Exception:
                shard.force_killed = True
        for shard in shards:
            self._stop_reader(shard)
            self._discard_queue(shard)
            result_queue = shard.result_queue
            shard.result_queue = None
            if result_queue is not None:
                try:
                    result_queue.cancel_join_thread()
                    result_queue.close()
                except Exception:
                    pass

    @staticmethod
    def _discard_queue(shard: _Shard) -> None:
        queue = shard.queue
        shard.queue = None
        if queue is None:
            return
        try:
            # A terminated consumer leaves the feeder thread with
            # buffered data it can never flush; cancel it before close
            # so teardown cannot block.
            queue.cancel_join_thread()
            queue.close()
        except Exception:
            pass

    # -- dispatch ------------------------------------------------------
    def submit(self, job_id: int, images) -> None:
        """Dispatch one job (thread-safe; called by the dispatcher)."""
        with self._lock:
            if self._stopped:
                raise DataflowError("supervisor is stopped")
            if job_id in self._payloads or job_id in self._done:
                raise DataflowError(f"duplicate job id {job_id}")
            self._payloads[job_id] = images
            self._attempt[job_id] = 0
            self._dispatch(job_id)

    def _dispatch(self, job_id: int) -> None:
        """Assign a job to a healthy shard, or queue it for the
        in-process fallback when the pool is below the floor (lock
        held)."""
        shard = self._pick_shard()
        if shard is None:
            self._queue_degraded(job_id)
            return
        attempt = self._attempt[job_id]
        self._owner[job_id] = shard.index
        if self.job_deadline is not None:
            # A cooling shard executes nothing until its respawn; the
            # deadline clock starts when the worker could plausibly
            # pick the job up.
            start = max(
                time.monotonic(), shard.respawn_at or 0.0
            )
            self._deadlines[job_id] = start + self.job_deadline
        shard.in_flight.add(job_id)
        shard.queue.put((job_id, attempt, self._payloads[job_id]))

    def _pick_shard(self) -> "_Shard | None":
        candidates = [
            shard for shard in self._shards if not shard.retired
        ]
        if not candidates or len(candidates) < self.min_live:
            return None
        self._rr += 1
        return candidates[self._rr % len(candidates)]

    # -- recovery ------------------------------------------------------
    def _retire_or_respawn(self, shard: _Shard, kill: bool) -> None:
        """Replace a dead/hung shard's process, with capped exponential
        backoff; exhausting the restart budget retires the shard for
        this stream (lock held).  Jobs in flight on the shard are NOT
        redispatched here — callers own that, so they can count the
        loss correctly."""
        if kill and shard.process is not None:
            try:
                shard.process.terminate()
                shard.process.join(timeout=5)
            except Exception:
                pass
            shard.force_killed = True
        shard.process = None
        # The old queue may hold jobs the dead worker never took;
        # those are redispatched by the caller, so drop the queue
        # rather than hand stale work to the replacement.
        self._discard_queue(shard)
        shard.in_flight = set()
        shard.restarts += 1
        if shard.restarts > self.max_restarts:
            shard.retired = True
            return
        if self._streaming:
            self.stats["restarts"] += 1
        else:
            self._idle_restarts += 1
        backoff = min(
            RESTART_BACKOFF * (2 ** (shard.restarts - 1)), BACKOFF_CAP
        )
        shard.queue = self._ctx.Queue()
        shard.respawn_at = time.monotonic() + backoff

    def _redispatch(self, job_id: int, counter: str) -> None:
        """Move a lost/errored job to its next attempt (lock held)."""
        if job_id in self._done:
            return
        self._attempt[job_id] += 1
        self.stats[counter] += 1
        if self._attempt[job_id] >= self.max_attempts:
            # The pool had its chances.  Jobs that *errored* every
            # attempt are genuinely poisonous — surface the worker's
            # traceback.  Jobs merely lost to crashes/hangs degrade to
            # the in-process fallback (which also serves as the final
            # word on poison: it raises in the parent, with a parent
            # stack, if the job truly cannot run).
            if self._errored.get(job_id, 0) >= self.max_attempts:
                raise DataflowError(
                    f"job {job_id} failed on every one of "
                    f"{self.max_attempts} attempts; last worker "
                    f"error:\n{self._last_error.get(job_id, '?')}"
                )
            self._queue_degraded(job_id)
            return
        self._dispatch(job_id)

    def _queue_degraded(self, job_id: int) -> None:
        """Hand a job to the in-process fallback path (lock held) and
        wake any consumer blocked on the result funnel.  Every append
        pairs with one wake sentinel; a consumer that drains the list
        without consuming its sentinel just sees a benign spurious
        wake later."""
        self._owner.pop(job_id, None)
        self._deadlines.pop(job_id, None)
        self._degraded.append(job_id)
        self._results.put(_DEGRADED_WAKE)

    def _probe(self) -> None:
        """Health pass: respawn due shards, detect dead and hung
        workers, redispatch their lost jobs."""
        with self._lock:
            now = time.monotonic()
            for shard in self._shards:
                if shard.retired:
                    continue
                if shard.process is not None:
                    if not shard.process.is_alive():
                        lost = sorted(shard.in_flight)
                        self._retire_or_respawn(shard, kill=False)
                        for job_id in lost:
                            self._redispatch(job_id, "redispatched")
                elif (
                    shard.respawn_at is not None
                    and now >= shard.respawn_at
                ):
                    self._start_shard(shard)
            if self.job_deadline is None:
                return
            for shard in self._shards:
                if shard.retired or not shard.in_flight:
                    continue
                expired = [
                    job_id
                    for job_id in shard.in_flight
                    if now > self._deadlines.get(job_id, now)
                ]
                if not expired:
                    continue
                # A shard sitting on an expired job is hung (or too
                # slow to trust): kill it, respawn it, move all its
                # work — late answers are discarded by attempt dedup.
                self.stats["deadline_misses"] += len(expired)
                lost = sorted(shard.in_flight)
                self._retire_or_respawn(shard, kill=True)
                for job_id in lost:
                    self._redispatch(job_id, "redispatched")

    # -- collection ----------------------------------------------------
    def next_result(self) -> tuple:
        """Block until one dispatched job completes.

        Returns ``(job_id, shard_index, record)`` — ``shard_index`` is
        None when the job ran on the in-process degraded path.  Each
        completed job is returned exactly once; duplicate/stale worker
        results are discarded internally.

        The wait is event-driven: a pure blocking read of the result
        funnel, woken by worker completions, degraded-job sentinels and
        probe failures — the background probe thread (not this call)
        owns fault detection, so collection latency is thread-wakeup
        cost regardless of :data:`POLL_INTERVAL`.

        Raises:
            DataflowError: a job exhausted its attempts with worker
                errors (message carries the worker traceback), or
                nothing is in flight.
        """
        while True:
            degraded_job = None
            with self._lock:
                if (
                    not self._payloads
                    and not self._degraded
                ):
                    raise DataflowError(
                        "next_result() with no job in flight"
                    )
                if self._degraded:
                    degraded_job = self._degraded.popleft()
            if degraded_job is not None:
                return self._run_degraded(degraded_job)
            message = self._results.get()
            if message is _DEGRADED_WAKE:
                continue  # re-check the degraded list
            if (
                isinstance(message, tuple)
                and len(message) == 2
                and message[0] == _PROBE_ERROR
            ):
                raise message[1]
            completed = self._absorb(message)
            if completed is not None:
                return completed

    def _run_degraded(self, job_id: int) -> tuple:
        """Execute one job on the in-process fallback executor."""
        if self._fallback is None:
            raise DataflowError(
                f"shard pool below floor (min_live={self.min_live}, "
                f"live={self.live_shards}) and no in-process fallback "
                f"is configured; job {job_id} cannot be served"
            )
        with self._lock:
            images = self._payloads[job_id]
        record = self._fallback(images)
        with self._lock:
            self.stats["degraded_jobs"] += 1
            self._finish(job_id)
        return job_id, None, record

    def _absorb(self, message) -> "tuple | None":
        """Fold one worker message into the stream state; returns the
        completed job tuple, or None for duplicates/retries."""
        shard_index, job_id, attempt, record, error = message
        with self._lock:
            stale = (
                job_id in self._done
                or self._attempt.get(job_id) != attempt
                or self._owner.get(job_id) != shard_index
            )
            if stale:
                self.stats["duplicates_discarded"] += 1
                return None
            shard = self._shards[shard_index]
            shard.in_flight.discard(job_id)
            if error is not None:
                self.stats["worker_errors"] += 1
                self._last_error[job_id] = error
                self._errored[job_id] = (
                    self._errored.get(job_id, 0) + 1
                )
                self._redispatch(job_id, "retries")
                return None
            self._finish(job_id)
            return job_id, shard_index, record

    def _finish(self, job_id: int) -> None:
        self._done.add(job_id)
        self._payloads.pop(job_id, None)
        self._owner.pop(job_id, None)
        self._deadlines.pop(job_id, None)
        self._last_error.pop(job_id, None)
        self._errored.pop(job_id, None)

    def health(self) -> dict:
        """Snapshot of the stream's health counters."""
        with self._lock:
            snapshot = dict(self.stats)
            snapshot["live_shards"] = sum(
                1 for shard in self._shards if not shard.retired
            )
            snapshot["workers"] = len(self._shards)
        return snapshot
