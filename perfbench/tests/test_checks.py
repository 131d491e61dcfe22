"""The workloads' output checks: one flipped element or one wrong cycle
count must lower ok_frac, and all-zero outputs must read as not live.
The program is replaced by stand-ins that return canned results."""

from types import SimpleNamespace

import numpy as np
import pytest

from perfbench.workloads import CnnOffline, CnnServe, LlmDecode, \
    Window


class FakeRef:
    def run(self) -> float:
        return 0.001


class FakeRunner:
    """Returns the reference result, except on the calls listed in
    ``faults`` where it returns the given corrupted result."""

    def __init__(self, good, faults):
        self.good = good
        self.faults = dict(faults)
        self.calls = 0

    def run(self, model, images):
        self.calls += 1
        return self.faults.get(self.calls, self.good(images))


def result(output, cycles):
    return SimpleNamespace(output=output, conv_cycles=cycles)


def offline(faults):
    workload = CnnOffline(0, FakeRef())
    output = np.arange(1, 17, dtype=np.int64).reshape(8, 2, 1, 1)
    workload.first = result(output, 800)
    workload.images = np.zeros((8, 1, 4, 4), np.int64)
    workload.runner = FakeRunner(lambda images: workload.first, faults)
    workload._measure(0.05, None)
    return workload


def flipped(output):
    changed = output.copy()
    changed.flat[0] += 1
    return changed


def test_offline_all_good_batches_are_ok():
    assert offline({}).tally.ok_frac == 1.0


def test_offline_flipped_element_lowers_ok_frac():
    good = np.arange(1, 17, dtype=np.int64).reshape(8, 2, 1, 1)
    workload = offline({2: result(flipped(good), 800)})
    assert workload.tally.failed == workload.batch
    assert workload.tally.ok_frac < 1.0


def test_offline_wrong_cycles_lowers_ok_frac():
    good = np.arange(1, 17, dtype=np.int64).reshape(8, 2, 1, 1)
    workload = offline({2: result(good, 801)})
    assert workload.tally.failed == workload.batch
    assert workload.tally.ok_frac < 1.0


def decode(faults):
    workload = LlmDecode(0, FakeRef())
    workload.tokens = 4
    workload.stream = np.ones((1, 2, 4, 1), np.int64)

    def good(prefix):
        return result(prefix * 3, 100 * prefix.shape[2])

    workload.runner = FakeRunner(good, faults)
    workload.reference, _ = workload._decode()
    workload._measure(0.02, None)
    return workload


def test_decode_wrong_step_cycles_lowers_ok_frac():
    assert decode({}).tally.ok_frac == 1.0
    # Calls 1-4 are the reference decode; call 6 is step 2 of the
    # first timed decode.
    bad = result(np.full((1, 2, 2, 1), 3, np.int64), 201)
    workload = decode({6: bad})
    assert workload.tally.failed == 1
    assert workload.tally.ok_frac < 1.0


def serve(rows, stream_cycles):
    workload = CnnServe(0, FakeRef())
    workload.pool = 2
    expected = np.array([[[[5]], [[0]]], [[[7]], [[1]]]], np.int64)
    workload.expected = result(expected, 2 * 1000)
    workload.outputs = [expected]
    picks = [0, 1, 1]
    split = SimpleNamespace(queue_wait=0.001, dispatch=0.001,
                            compute=0.008, reassembly=0.0001,
                            total=0.011)
    # A failed or refused request has no response.
    responses = [
        None if row is None
        else SimpleNamespace(output=row, job=index, latency=split)
        for index, row in enumerate(rows)
    ]
    completed = sum(row is not None for row in rows)
    stream = SimpleNamespace(conv_cycles=stream_cycles,
                             requests=completed, cache={}, health={})
    window = Window()
    targets = [0.0, 0.02, 0.04]
    done_at = {index: target + 0.011
               for index, target in enumerate(targets)
               if rows[index] is not None}
    workload._check(window, stream, responses, picks, targets, done_at)
    return workload, window


def test_serve_checks_every_row_and_the_stream_cycles():
    expected = np.array([[[[5]], [[0]]], [[[7]], [[1]]]], np.int64)
    rows = [expected[0], expected[1], expected[1]]
    workload, window = serve(rows, 3000)
    assert workload.tally.ok_frac == 1.0
    assert window.within_slo == 3

    workload, window = serve(
        [expected[0], flipped(expected[1]), expected[1]], 3000
    )
    assert workload.tally.failed == 1
    assert window.within_slo == 2

    workload, _ = serve(rows, 3001)
    assert workload.tally.failed == 1


def test_serve_failed_request_is_a_miss():
    expected = np.array([[[[5]], [[0]]], [[[7]], [[1]]]], np.int64)
    workload, window = serve([expected[0], None, expected[1]], 2000)
    assert workload.tally.failed == 1
    assert window.within_slo == 2
    assert window.sent == 3


@pytest.mark.parametrize("cls", [CnnOffline, CnnServe])
def test_all_zero_output_is_not_live(cls):
    workload = cls(0, FakeRef())
    workload.outputs = [np.zeros((8, 10, 1, 1), np.int64)]
    assert workload.live_frac() == 0.0
    workload.outputs = [np.eye(2, dtype=np.int64)]
    assert workload.live_frac() == 0.5
