"""Tests for the load generator: schedules and percentiles.

Everything here is host-independent: schedules are pure functions of
(rate, count, seed) and percentiles are nearest-rank over given
samples — no shard pool is spawned.
"""

import math
from types import SimpleNamespace

import pytest

from repro.errors import DataflowError
from repro.serve import (
    ARRIVAL_KINDS,
    arrival_schedule,
    burst_schedule,
    latency_stats,
    poisson_schedule,
    uniform_schedule,
)
from repro.serve.gateway import LatencyBreakdown
from repro.serve.loadgen import percentile


class TestSchedules:
    def test_poisson_is_deterministic_per_seed(self):
        first = poisson_schedule(100.0, 32, seed=5)
        again = poisson_schedule(100.0, 32, seed=5)
        other = poisson_schedule(100.0, 32, seed=6)
        assert first.offsets == again.offsets
        assert first.offsets != other.offsets

    def test_poisson_shape(self):
        schedule = poisson_schedule(200.0, 64, seed=1)
        assert schedule.kind == "poisson"
        assert schedule.count == 64
        assert schedule.offsets[0] == 0.0
        assert all(
            later >= earlier
            for earlier, later in zip(
                schedule.offsets, schedule.offsets[1:]
            )
        )
        # Realized rate is within a factor of ~2 of nominal for a
        # 64-arrival sample (exponential gaps, seeded — no flake).
        assert 0.5 * 200.0 < schedule.offered_rate < 2.0 * 200.0

    def test_burst_clumps(self):
        schedule = burst_schedule(100.0, 12, burst_size=4)
        assert schedule.offsets[:4] == (0.0,) * 4
        gap = 4 / 100.0
        assert schedule.offsets[4:8] == (gap,) * 4
        assert schedule.offsets[8:] == (2 * gap,) * 4
        # Average offered rate matches the nominal rate.
        assert math.isclose(
            schedule.offered_rate, (12 - 1) / (2 * gap)
        )

    def test_uniform_spacing(self):
        schedule = uniform_schedule(50.0, 5)
        assert schedule.offsets == (
            0.0, 1 / 50.0, 2 / 50.0, 3 / 50.0, 4 / 50.0
        )
        assert math.isclose(schedule.offered_rate, 50.0)

    def test_factory_covers_every_kind(self):
        for kind in ARRIVAL_KINDS:
            schedule = arrival_schedule(kind, 100.0, 8, seed=2)
            assert schedule.kind == kind
            assert schedule.count == 8

    def test_factory_rejects_unknown_kind(self):
        with pytest.raises(DataflowError):
            arrival_schedule("adversarial", 100.0, 8)

    @pytest.mark.parametrize("rate,count", [(0.0, 8), (-1.0, 8), (10.0, 0)])
    def test_invalid_rate_or_count_rejected(self, rate, count):
        with pytest.raises(DataflowError):
            poisson_schedule(rate, count)

    def test_invalid_burst_size_rejected(self):
        with pytest.raises(DataflowError):
            burst_schedule(100.0, 8, burst_size=0)


class TestPercentiles:
    def test_nearest_rank(self):
        values = [10.0, 20.0, 30.0, 40.0, 50.0]
        assert percentile(values, 0.50) == 30.0
        assert percentile(values, 0.90) == 50.0
        assert percentile(values, 0.99) == 50.0
        assert percentile(values, 0.20) == 10.0

    def test_order_independent_and_empty(self):
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
        assert percentile([], 0.99) == 0.0

    def test_latency_stats_shape(self):
        def response(total):
            return SimpleNamespace(
                latency=LatencyBreakdown(
                    queue_wait=total / 4,
                    dispatch=total / 8,
                    compute=total / 2,
                    reassembly=total / 8,
                    total=total,
                )
            )

        stats = latency_stats(
            [response(t) for t in (0.01, 0.02, 0.03, 0.04)]
        )
        assert stats["count"] == 4
        assert stats["p50"] == 0.02
        assert stats["p99"] == 0.04
        assert stats["max"] == 0.04
        assert math.isclose(stats["mean"], 0.025)
        assert set(stats["phases"]) == {
            "queue_wait", "dispatch", "compute", "reassembly"
        }
        assert math.isclose(
            stats["phases"]["compute"]["p99"], 0.02
        )
