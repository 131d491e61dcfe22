"""Load generation for the serving gateway.

Seeded arrival schedules drive a
:class:`~repro.serve.gateway.ServingGateway` the way real traffic
would, and per-response latency decompositions feed p50/p90/p99
percentile stats (the huggingbench ``RunnerStats`` shape).

Two driving disciplines, the standard pair from serving-systems
measurement:

* **open loop** (:func:`run_open_loop`) — requests arrive on a fixed
  schedule regardless of how the system keeps up, the honest way to
  measure saturation (a closed loop self-throttles and hides queueing
  collapse).  Schedules: :func:`poisson_schedule` (memoryless arrivals
  at rate λ — exponential gaps from the repo's seeded RNG streams, so
  a schedule replays exactly), :func:`burst_schedule` (synchronized
  clumps, the coalescing stress case) and :func:`uniform_schedule`
  (evenly spaced, the low-variance baseline).
* **closed loop** (:func:`run_closed_loop`) — N concurrent submitters
  each wait for their response before sending the next request; the
  concurrency sweep that measures service capacity and unloaded
  latency.

These drivers pin the gateway's bit-identity and latency-decomposition
contracts in the test suite.  Host-plane serving measurement (open-loop
Poisson traffic with repeated seeded runs and reference-normalized
throughput) lives in ``perfbench`` (``python3 perfbench/run.py
--workload cnn-serve``).
"""

from __future__ import annotations

import asyncio
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import DataflowError
from repro.serve.gateway import (
    LATENCY_PHASES,
    GatewayResponse,
    GatewayResult,
)
from repro.utils.rng import make_rng

#: Arrival processes the schedule factory knows.
ARRIVAL_KINDS = ("poisson", "burst", "uniform")


@dataclass(frozen=True)
class ArrivalSchedule:
    """A seeded open-loop arrival schedule.

    Attributes:
        kind: arrival process name (see :data:`ARRIVAL_KINDS`).
        rate: nominal offered rate in requests/sec.
        offsets: per-request arrival offsets in seconds from stream
            start, nondecreasing.
    """

    kind: str
    rate: float
    offsets: tuple

    @property
    def count(self) -> int:
        return len(self.offsets)

    @property
    def span(self) -> float:
        """Seconds between the first and last arrival."""
        if len(self.offsets) < 2:
            return 0.0
        return float(self.offsets[-1] - self.offsets[0])

    @property
    def offered_rate(self) -> float:
        """Realized offered rate over the schedule's span."""
        span = self.span
        if span <= 0.0:
            return float(self.rate)
        return (self.count - 1) / span


def poisson_schedule(
    rate: float, count: int, seed: "int | str" = 0
) -> ArrivalSchedule:
    """Memoryless arrivals at ``rate`` req/s: i.i.d. exponential gaps
    drawn from the seeded ``make_rng`` stream, so the same (rate,
    count, seed) replays the exact same schedule."""
    _check_rate_count(rate, count)
    rng = make_rng("loadgen", "poisson", seed, int(count))
    gaps = rng.exponential(1.0 / rate, size=count)
    gaps[0] = 0.0  # the stream starts at the first arrival
    return ArrivalSchedule(
        kind="poisson",
        rate=float(rate),
        offsets=tuple(float(offset) for offset in np.cumsum(gaps)),
    )


def burst_schedule(
    rate: float,
    count: int,
    burst_size: int = 8,
    seed: "int | str" = 0,
) -> ArrivalSchedule:
    """Synchronized clumps: ``burst_size`` simultaneous arrivals, then
    silence until the next burst, with the inter-burst gap sized so
    the *average* offered rate is ``rate``.  The worst case for
    coalescing (everything lands at once) and the best (the queue
    drains fully between bursts)."""
    _check_rate_count(rate, count)
    if burst_size < 1:
        raise DataflowError("burst_size must be >= 1")
    gap = burst_size / rate
    offsets = [
        (index // burst_size) * gap for index in range(count)
    ]
    return ArrivalSchedule(
        kind="burst",
        rate=float(rate),
        offsets=tuple(float(offset) for offset in offsets),
    )


def uniform_schedule(
    rate: float, count: int, seed: "int | str" = 0
) -> ArrivalSchedule:
    """Evenly spaced arrivals at exactly ``rate`` req/s."""
    _check_rate_count(rate, count)
    return ArrivalSchedule(
        kind="uniform",
        rate=float(rate),
        offsets=tuple(index / rate for index in range(count)),
    )


def _check_rate_count(rate: float, count: int) -> None:
    if rate <= 0.0:
        raise DataflowError("arrival rate must be positive")
    if count < 1:
        raise DataflowError("arrival count must be >= 1")


def arrival_schedule(
    kind: str,
    rate: float,
    count: int,
    seed: "int | str" = 0,
    burst_size: int = 8,
) -> ArrivalSchedule:
    """Factory over :data:`ARRIVAL_KINDS`."""
    if kind == "poisson":
        return poisson_schedule(rate, count, seed)
    if kind == "burst":
        return burst_schedule(rate, count, burst_size, seed)
    if kind == "uniform":
        return uniform_schedule(rate, count, seed)
    raise DataflowError(
        f"arrival kind must be one of {', '.join(ARRIVAL_KINDS)}, "
        f"got {kind!r}"
    )


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (the huggingbench convention): the
    smallest observed value with at least ``fraction`` of the sample
    at or below it.  0.0 on an empty sample."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = math.ceil(fraction * len(ordered)) - 1
    return float(ordered[min(max(rank, 0), len(ordered) - 1)])


def latency_stats(responses) -> dict:
    """p50/p90/p99/mean/max over total latency plus the per-phase
    breakdown (seconds) of a response sample."""
    totals = [response.latency.total for response in responses]
    stats = {
        "count": len(responses),
        "p50": percentile(totals, 0.50),
        "p90": percentile(totals, 0.90),
        "p99": percentile(totals, 0.99),
        "mean": (
            float(sum(totals) / len(totals)) if totals else 0.0
        ),
        "max": float(max(totals)) if totals else 0.0,
        "phases": {},
    }
    for phase in LATENCY_PHASES:
        values = [
            getattr(response.latency, phase)
            for response in responses
        ]
        stats["phases"][phase] = {
            "mean": (
                float(sum(values) / len(values)) if values else 0.0
            ),
            "p99": percentile(values, 0.99),
        }
    return stats


@dataclass(frozen=True)
class LoadRun:
    """One driven gateway stream: responses + aggregate result.

    Attributes:
        mode: "open" or "closed".
        schedule: the arrival schedule (open loop only).
        concurrency: submitter count (closed loop only).
        responses: completed :class:`GatewayResponse`\\ s, seq order.
        failed: requests rejected/shed by admission control.
        result: the drained :class:`GatewayResult` (bit-identity,
            cycles, health).
        stats: :func:`latency_stats` of the completed responses.
    """

    mode: str
    schedule: "ArrivalSchedule | None"
    concurrency: "int | None"
    responses: tuple
    failed: int
    result: GatewayResult
    stats: dict


def _settle(settled) -> "tuple[list, int]":
    """Split gathered results into responses and admission failures;
    re-raise anything that isn't load shedding."""
    responses = []
    failures = 0
    for item in settled:
        if isinstance(item, GatewayResponse):
            responses.append(item)
        elif isinstance(item, DataflowError):
            failures += 1
        elif isinstance(item, BaseException):
            raise item
    responses.sort(key=lambda response: response.seq)
    return responses, failures


def run_open_loop(gateway, images, schedule: ArrivalSchedule) -> LoadRun:
    """Drive one gateway stream open-loop on an arrival schedule.

    ``images`` must carry ``schedule.count`` rows; request ``i`` is
    submitted at ``offsets[i]`` whether or not earlier requests have
    completed (arrival never waits on service — the open-loop
    property).  Returns after the stream fully drains.
    """
    images = np.asarray(images)
    if images.shape[0] != schedule.count:
        raise DataflowError(
            f"open-loop drive needs one image per arrival: got "
            f"{images.shape[0]} images for {schedule.count} arrivals"
        )

    async def _drive():
        start = time.monotonic()
        tasks = []
        for index, offset in enumerate(schedule.offsets):
            delay = (start + offset) - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(
                asyncio.ensure_future(
                    gateway.submit_async(images[index])
                )
            )
        return await asyncio.gather(*tasks, return_exceptions=True)

    settled = asyncio.run(_drive())
    responses, failures = _settle(settled)
    result = gateway.finish()
    return LoadRun(
        mode="open",
        schedule=schedule,
        concurrency=None,
        responses=tuple(responses),
        failed=failures,
        result=result,
        stats=latency_stats(responses),
    )


def run_closed_loop(gateway, images, concurrency: int) -> LoadRun:
    """Drive one gateway stream closed-loop: ``concurrency``
    submitters each await their response before sending the next
    request, until every image has been served."""
    images = np.asarray(images)
    if concurrency < 1:
        raise DataflowError("concurrency must be >= 1")

    async def _drive():
        counter = itertools.count()
        settled = []

        async def submitter():
            while True:
                index = next(counter)
                if index >= images.shape[0]:
                    return
                try:
                    settled.append(
                        await gateway.submit_async(images[index])
                    )
                except DataflowError as error:
                    settled.append(error)

        await asyncio.gather(
            *(submitter() for _ in range(concurrency))
        )
        return settled

    settled = asyncio.run(_drive())
    responses, failures = _settle(settled)
    result = gateway.finish()
    return LoadRun(
        mode="closed",
        schedule=None,
        concurrency=int(concurrency),
        responses=tuple(responses),
        failed=failures,
        result=result,
        stats=latency_stats(responses),
    )
