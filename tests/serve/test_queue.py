"""Unit tests for the dynamic-batching request queue."""

import threading
import time

import numpy as np
import pytest

from repro.errors import DataflowError
from repro.serve import RequestQueue


def _image(value):
    return np.full((1, 2, 2), value, dtype=np.int64)


class TestCoalescing:
    def test_full_batch_ships_immediately(self):
        queue = RequestQueue(max_batch=3, max_wait=60.0)
        for value in range(3):
            queue.submit(_image(value))
        start = time.monotonic()
        batch = queue.next_batch()
        assert time.monotonic() - start < 1.0  # did not sit out max_wait
        assert [request.seq for request in batch] == [0, 1, 2]

    def test_max_wait_flushes_partial_batch(self):
        queue = RequestQueue(max_batch=8, max_wait=0.01)
        queue.submit(_image(7))
        batch = queue.next_batch()
        assert len(batch) == 1
        assert np.array_equal(batch[0].image, _image(7))

    def test_oversubmission_splits_into_batches(self):
        queue = RequestQueue(max_batch=2, max_wait=0.01)
        for value in range(5):
            queue.submit(_image(value))
        queue.close()
        sizes = []
        seqs = []
        while True:
            batch = queue.next_batch()
            if batch is None:
                break
            sizes.append(len(batch))
            seqs.extend(request.seq for request in batch)
        assert sizes == [2, 2, 1]
        assert seqs == list(range(5))  # submission order preserved

    def test_batch_takes_only_the_leading_same_shape_run(self):
        queue = RequestQueue(max_batch=8, max_wait=0.01)
        shapes = [(1, 4, 1), (1, 4, 1), (1, 5, 1), (1, 4, 1)]
        for shape in shapes:
            queue.submit(np.zeros(shape, dtype=np.int64))
        queue.close()
        batches = []
        while (batch := queue.next_batch()) is not None:
            batches.append([request.seq for request in batch])
        assert batches == [[0, 1], [2], [3]]  # FIFO order kept

    def test_sequence_numbers_are_monotonic(self):
        queue = RequestQueue(max_batch=4, max_wait=0.0)
        assert [queue.submit(_image(v)) for v in range(4)] == [0, 1, 2, 3]

    def test_deadline_anchored_to_arrival_not_dispatcher(self):
        """Regression: a busy dispatcher must not extend the coalescing
        window.  The request arrived (and aged past max_wait) before
        the dispatcher got around to next_batch(), so the batch must
        flush immediately instead of waiting another max_wait."""
        queue = RequestQueue(max_batch=8, max_wait=0.2)
        queue.submit(_image(1))
        time.sleep(0.25)  # dispatcher busy elsewhere
        start = time.monotonic()
        batch = queue.next_batch()
        elapsed = time.monotonic() - start
        assert len(batch) == 1
        assert elapsed < 0.15, (
            f"stale request waited another {elapsed:.3f}s past its "
            "max_wait deadline"
        )

    def test_partially_aged_request_waits_only_the_remainder(self):
        """The window is max_wait since arrival: after sleeping half
        the window, next_batch blocks only for the remaining half."""
        queue = RequestQueue(max_batch=8, max_wait=0.2)
        queue.submit(_image(1))
        time.sleep(0.1)
        start = time.monotonic()
        batch = queue.next_batch()
        elapsed = time.monotonic() - start
        assert len(batch) == 1
        assert elapsed < 0.18, "waited a full fresh max_wait window"

    def test_request_carries_arrival_timestamp(self):
        queue = RequestQueue(max_batch=1, max_wait=0.0)
        before = time.monotonic()
        queue.submit(_image(0))
        after = time.monotonic()
        batch = queue.next_batch()
        assert before <= batch[0].arrived <= after


class TestCloseSemantics:
    def test_closed_empty_queue_returns_none(self):
        queue = RequestQueue(max_batch=2, max_wait=0.01)
        queue.close()
        assert queue.next_batch() is None

    def test_close_drains_pending(self):
        queue = RequestQueue(max_batch=8, max_wait=60.0)
        queue.submit(_image(1))
        queue.close()
        batch = queue.next_batch()
        assert len(batch) == 1
        assert queue.next_batch() is None

    def test_submit_after_close_rejected_with_clear_message(self):
        queue = RequestQueue(max_batch=2, max_wait=0.01)
        queue.close()
        with pytest.raises(
            DataflowError, match="closed.*submit\\(\\) after close\\(\\)"
        ):
            queue.submit(_image(0))

    def test_close_drains_exactly_once(self):
        """Every pending request appears in exactly one batch after
        close, and every later call returns None — no request is lost,
        duplicated, or resurrected."""
        queue = RequestQueue(max_batch=2, max_wait=0.01)
        for value in range(5):
            queue.submit(_image(value))
        queue.close()
        seqs = []
        while (batch := queue.next_batch()) is not None:
            seqs.extend(request.seq for request in batch)
        assert seqs == list(range(5))
        for _ in range(3):
            assert queue.next_batch() is None

    def test_close_wakes_blocked_consumer(self):
        queue = RequestQueue(max_batch=2, max_wait=60.0)
        seen = []

        def consume():
            seen.append(queue.next_batch())

        consumer = threading.Thread(target=consume)
        consumer.start()
        time.sleep(0.05)
        queue.close()
        consumer.join(timeout=5)
        assert not consumer.is_alive()
        assert seen == [None]


class TestAdmissionControl:
    def test_depth_high_watermark_tracked(self):
        queue = RequestQueue(max_batch=8, max_wait=0.01)
        for value in range(5):
            queue.submit(_image(value))
        queue.next_batch()
        stats = queue.stats()
        assert stats["depth_high_watermark"] == 5
        assert stats["pending"] == 0

    def test_unbounded_queue_never_blocks_or_rejects(self):
        queue = RequestQueue(max_batch=2, max_wait=0.01)
        for value in range(64):
            queue.submit(_image(value))
        stats = queue.stats()
        assert stats["submitted"] == 64
        assert stats["pending"] == 64
        assert stats["depth_high_watermark"] == 64


class TestConcurrentSubmitters:
    """Stress tests: many threads submitting at once.

    The exactly-once contract under concurrency: every submitted
    request appears in exactly one drained batch, sequence numbers are
    unique, and drained batches are in submission order.
    """

    def _drain(self, queue, eager=False):
        seqs = []
        while (batch := queue.next_batch(eager=eager)) is not None:
            seqs.extend(request.seq for request in batch)
        return seqs

    def test_exactly_once_under_contention(self):
        submitters, per_thread = 8, 25
        queue = RequestQueue(max_batch=4, max_wait=0.0)
        drained = []
        consumer = threading.Thread(
            target=lambda: drained.extend(self._drain(queue))
        )
        consumer.start()

        def submit_many(thread_index):
            for value in range(per_thread):
                queue.submit(_image(thread_index * 1000 + value))

        threads = [
            threading.Thread(target=submit_many, args=(index,))
            for index in range(submitters)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        queue.close()
        consumer.join(timeout=30)
        assert not consumer.is_alive()
        total = submitters * per_thread
        assert sorted(drained) == list(range(total))
        assert drained == sorted(drained)  # submission order
        stats = queue.stats()
        assert stats["submitted"] == total
        assert stats["pending"] == 0

    def test_eager_consumer_under_contention(self):
        """An eager drain loop racing many submitters still sees every
        request exactly once, in order."""
        submitters, per_thread = 4, 30
        queue = RequestQueue(max_batch=8, max_wait=60.0)
        drained = []
        consumer = threading.Thread(
            target=lambda: drained.extend(
                self._drain(queue, eager=True)
            )
        )
        consumer.start()
        threads = [
            threading.Thread(
                target=lambda: [
                    queue.submit(_image(value))
                    for value in range(per_thread)
                ]
            )
            for _ in range(submitters)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        queue.close()
        consumer.join(timeout=30)
        assert not consumer.is_alive()
        assert drained == list(range(submitters * per_thread))


class TestEagerDispatch:
    def test_eager_ships_partial_batch_immediately(self):
        queue = RequestQueue(max_batch=8, max_wait=60.0)
        queue.submit(_image(0))
        start = time.monotonic()
        batch = queue.next_batch(eager=True)
        assert time.monotonic() - start < 1.0
        assert len(batch) == 1

    def test_eager_callable_reevaluated_on_poke(self):
        """A consumer that entered the coalescing window under
        backpressure must ship early when the predicate flips and the
        queue is poked — not sit out the rest of max_wait."""
        queue = RequestQueue(max_batch=8, max_wait=60.0)
        eager_flag = threading.Event()
        got = []

        def consume():
            got.append(queue.next_batch(eager=eager_flag.is_set))

        queue.submit(_image(0))
        consumer = threading.Thread(target=consume)
        start = time.monotonic()
        consumer.start()
        time.sleep(0.05)
        assert consumer.is_alive()  # parked in the 60s window
        eager_flag.set()
        queue.poke()
        consumer.join(timeout=5)
        assert not consumer.is_alive()
        assert time.monotonic() - start < 5.0
        assert len(got[0]) == 1

    def test_spurious_poke_does_not_ship_early(self):
        """poke() with an unchanged (false) predicate must leave the
        window intact — the batch still coalesces."""
        queue = RequestQueue(max_batch=2, max_wait=0.3)
        got = []

        def consume():
            got.append(queue.next_batch(eager=False))

        queue.submit(_image(0))
        consumer = threading.Thread(target=consume)
        consumer.start()
        time.sleep(0.02)
        queue.poke()  # spurious: nothing changed
        time.sleep(0.02)
        queue.submit(_image(1))  # fills the batch
        consumer.join(timeout=5)
        assert not consumer.is_alive()
        assert [request.seq for request in got[0]] == [0, 1]


class TestValidation:
    def test_bad_max_batch_rejected(self):
        with pytest.raises(DataflowError):
            RequestQueue(max_batch=0)

    def test_bad_max_wait_rejected(self):
        with pytest.raises(DataflowError):
            RequestQueue(max_wait=-1.0)

    def test_len_reports_pending(self):
        queue = RequestQueue(max_batch=4, max_wait=0.01)
        assert len(queue) == 0
        queue.submit(_image(0))
        assert len(queue) == 1
