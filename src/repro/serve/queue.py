"""Dynamic-batching request queue for the sharded serving runtime.

Single-image requests arrive one at a time; dispatching each alone
would waste the vectorized executor (one einsum pass per layer amortizes
over the whole batch).  :class:`RequestQueue` coalesces: a batch closes
as soon as ``max_batch`` requests are waiting, or when ``max_wait``
seconds have passed since the batch's first request arrived — the
classic throughput/latency knob of serving front-ends.  A dispatcher
with idle capacity can ask for an **eager** batch instead
(``next_batch(eager=True)``): whatever is pending ships immediately,
so under light load no request pays the coalescing window — batch
split cannot affect results (outputs and cycles are independent of how
a stream is batched), so eagerness is purely a latency policy.  A batch
only ever holds requests of one shape: dynamic-token programs accept
any sequence length, and a batch closes at the first pending request
whose shape differs from its head's (which then heads the next batch),
so submission order is kept.

The queue is optionally **bounded** (``max_pending``) with an explicit
admission-control policy for saturation, so a stalled or slow consumer
sheds load instead of growing the pending list without bound:

* ``"block"`` — submitters wait for space (backpressure; the default,
  and what :class:`~repro.serve.sharded.ShardedRunner` uses so no
  request of a stream is ever lost);
* ``"reject"`` — a full queue raises :class:`DataflowError`
  immediately (load shedding for open-loop front-ends);
* ``"shed"`` — a full queue evicts its *oldest* pending request to
  admit the new one (freshness-first shedding: under sustained
  overload the queue serves recent traffic instead of an ever-staler
  backlog).  Evicted requests are reported through the ``on_evict``
  callback (called outside the queue lock) so a gateway can fail their
  tickets.

Depth telemetry (:meth:`RequestQueue.stats`) records the high
watermark, rejected, blocked and shed submissions for the serving
tier's health report.

Each request carries a monotonically increasing sequence number, so the
dispatcher can scatter coalesced batches across shards in any order and
results are still reassembled into exact submission order.  A request
can also carry an opaque ``token`` (e.g. a response future), which
rides along to whoever consumes the batch.

All waits in this module are event-driven (condition variables): a
blocked consumer wakes on submit/close, a blocked submitter wakes on
take/close — there are no fixed-interval polls, so added latency under
light load is bounded by thread wakeup cost, not poll granularity.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.errors import DataflowError

#: Admission-control policies a bounded queue supports.
ADMISSION_POLICIES = ("block", "reject", "shed")


@dataclass(frozen=True)
class Request:
    """One pending single-image inference request.

    Attributes:
        seq: submission-order sequence number (0-based).
        image: the (C, H, W) integer image.
        arrived: ``time.monotonic()`` timestamp stamped at
            :meth:`RequestQueue.submit` — the ``max_wait`` coalescing
            deadline is anchored here, so a request's batching latency
            is bounded by its *arrival*, not by when a (possibly busy)
            dispatcher first observes it.
        token: opaque caller payload (e.g. a response future) carried
            through coalescing to the batch consumer.
    """

    seq: int
    image: np.ndarray
    arrived: float = field(default_factory=time.monotonic)
    token: object = None


class RequestQueue:
    """Coalesce single-image requests into dispatchable batches."""

    def __init__(
        self,
        max_batch: int = 8,
        max_wait: float = 0.002,
        max_pending: "int | None" = None,
        admission: str = "block",
        on_evict=None,
    ) -> None:
        """Args:
        max_batch: largest batch a shard receives (>= 1).
        max_wait: seconds to hold an open batch for stragglers.
        max_pending: queue-depth bound (>= 1); None = unbounded.
        admission: saturation policy for a bounded queue — "block"
            (submitters wait for space), "reject" (a full queue
            raises :class:`DataflowError`) or "shed" (a full queue
            evicts its oldest pending request).
        on_evict: callable ``request -> None`` invoked (outside the
            queue lock) for every request the "shed" policy evicts.
        """
        if max_batch < 1:
            raise DataflowError("max_batch must be >= 1")
        if max_wait < 0:
            raise DataflowError("max_wait must be >= 0")
        if max_pending is not None and max_pending < 1:
            raise DataflowError("max_pending must be >= 1 (or None)")
        if admission not in ADMISSION_POLICIES:
            raise DataflowError(
                f"admission policy must be one of "
                f"{', '.join(ADMISSION_POLICIES)}, got {admission!r}"
            )
        self.max_batch = max_batch
        self.max_wait = max_wait
        self.max_pending = max_pending
        self.admission = admission
        self.on_evict = on_evict
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._space = threading.Condition(self._lock)
        self._pending: "deque[Request]" = deque()
        self._next_seq = 0
        self._closed = False
        self._submitted = 0
        self._rejected = 0
        self._blocked = 0
        self._shed = 0
        self._high_watermark = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._pending)

    def submit(self, image: np.ndarray, token: object = None) -> int:
        """Enqueue one image; returns its sequence number.

        Args:
            image: the request payload.
            token: opaque payload carried on the :class:`Request`.

        Raises:
            DataflowError: the queue is closed, or it is full under
                the "reject" admission policy.
        """
        evicted: list[Request] = []
        try:
            with self._lock:
                if self._closed:
                    raise DataflowError(
                        "request queue is closed — submit() after "
                        "close() is not accepted"
                    )
                if self._full():
                    if self.admission == "reject":
                        self._rejected += 1
                        raise DataflowError(
                            f"request queue full ({self.max_pending} "
                            "pending): request rejected by admission "
                            "control"
                        )
                    if self.admission == "shed":
                        while self._full():
                            evicted.append(self._pending.popleft())
                            self._shed += 1
                    else:
                        self._blocked += 1
                        while self._full() and not self._closed:
                            self._space.wait()
                        if self._closed:
                            raise DataflowError(
                                "request queue closed while waiting "
                                "for space"
                            )
                request = Request(self._next_seq, image, token=token)
                self._next_seq += 1
                self._pending.append(request)
                self._submitted += 1
                self._high_watermark = max(
                    self._high_watermark, len(self._pending)
                )
                self._ready.notify()
                return request.seq
        finally:
            # Eviction callbacks run outside the lock: a gateway's
            # callback fails response futures, which may run arbitrary
            # done-callbacks — none of that belongs under the queue
            # lock.
            if evicted and self.on_evict is not None:
                for request in evicted:
                    self.on_evict(request)

    def close(self) -> None:
        """Stop accepting requests; pending batches still drain
        (exactly once — see :meth:`next_batch`)."""
        with self._lock:
            self._closed = True
            self._ready.notify_all()
            self._space.notify_all()

    def stats(self) -> dict:
        """Admission/depth telemetry snapshot."""
        with self._lock:
            return {
                "submitted": self._submitted,
                "rejected": self._rejected,
                "blocked": self._blocked,
                "shed": self._shed,
                "depth_high_watermark": self._high_watermark,
                "max_pending": self.max_pending,
                "admission": self.admission,
                "pending": len(self._pending),
            }

    def _full(self) -> bool:
        return (
            self.max_pending is not None
            and len(self._pending) >= self.max_pending
        )

    def poke(self) -> None:
        """Wake a consumer waiting out its coalescing window so it
        re-evaluates its ``eager`` predicate.  A pipelined gateway
        calls this when pool capacity frees (a batch completed): a
        dispatcher that entered the window while every worker was busy
        then ships what is pending immediately instead of holding it
        for the rest of ``max_wait``."""
        with self._lock:
            self._ready.notify_all()

    def next_batch(self, eager=False) -> "list[Request] | None":
        """Block until a coalesced batch is ready.

        Returns up to ``max_batch`` requests of one shape in
        submission order (the leading run of pending requests shaped
        like the oldest), or ``None`` once the queue is closed and
        drained.  The batch ships as soon as it is full, the queue
        closes, or ``max_wait`` seconds pass after its first request
        *arrived* (the ``submit()`` timestamp) — a dispatcher that was
        busy elsewhere cannot extend a request's coalescing window
        beyond the contract.

        Args:
            eager: ship whatever is pending the moment anything is —
                skip the ``max_wait`` coalescing window entirely.  A
                pipelined dispatcher uses this while it has idle
                workers (coalescing only buys throughput when the pool
                is saturated); batch split cannot affect outputs or
                cycles, so eagerness is purely a latency policy.
                Either a bool or a zero-arg callable — a callable is
                re-evaluated on every wake inside the coalescing
                window (see :meth:`poke`), so a wait that started
                under backpressure still ships early the moment
                capacity frees.

        After :meth:`close`, remaining requests drain exactly once:
        each pending request appears in exactly one returned batch,
        and every later call returns ``None``.
        """
        eager_now = eager if callable(eager) else (lambda: bool(eager))
        with self._ready:
            while not self._pending and not self._closed:
                self._ready.wait()
            if not self._pending:
                return None  # closed and fully drained
            if not eager_now():
                deadline = self._pending[0].arrived + self.max_wait
                while (
                    len(self._pending) < self.max_batch
                    and not self._closed
                    and not eager_now()
                ):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._ready.wait(timeout=remaining)
            return self._take(min(len(self._pending), self.max_batch))

    def _take(self, count: int) -> list[Request]:
        shape = np.shape(self._pending[0].image)
        batch = [self._pending.popleft()]
        while (
            len(batch) < count
            and np.shape(self._pending[0].image) == shape
        ):
            batch.append(self._pending.popleft())
        self._space.notify_all()
        return batch
