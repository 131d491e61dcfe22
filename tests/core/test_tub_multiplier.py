"""Tests for the tub multiplier lane."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.core.tub_multiplier import TubLaneBlock, TubMultiplier, tub_multiply
from repro.unary.encoding import PureUnaryCode
from repro.utils.intrange import INT4, INT8
from tests.oracles import run_to_completion


class TestExactness:
    def test_exhaustive_int4(self):
        """Every INT4 operand pair multiplies exactly."""
        lane = TubMultiplier()
        for activation in range(-8, 8):
            for weight in range(-8, 8):
                lane.load(activation, weight)
                assert run_to_completion(lane) == activation * weight

    def test_int8_extremes(self):
        lane = TubMultiplier()
        for activation, weight in [
            (-128, -128),
            (-128, 127),
            (127, -128),
            (127, 127),
        ]:
            lane.load(activation, weight)
            assert run_to_completion(lane) == activation * weight


class TestLatency:
    def test_cycles_is_ceil_half_weight(self):
        lane = TubMultiplier()
        assert lane.load(3, 7) == 4
        assert lane.load(3, -8) == 4
        assert lane.load(3, 0) == 0

    def test_int8_worst_case_64(self):
        lane = TubMultiplier()
        assert lane.load(1, -128) == 64

    def test_latency_independent_of_activation(self):
        lane = TubMultiplier()
        assert lane.load(127, 10) == lane.load(-1, 10) == 5


class TestSilentLane:
    def test_zero_weight_is_silent(self):
        lane = TubMultiplier()
        lane.load(99, 0)
        assert lane.is_silent
        assert not lane.busy
        assert lane.product == 0

    def test_nonzero_weight_not_silent(self):
        lane = TubMultiplier()
        lane.load(99, 1)
        assert not lane.is_silent


class TestProtocol:
    def test_tick_before_load_raises(self):
        with pytest.raises(SimulationError):
            TubMultiplier().tick()

    def test_idle_tick_contributes_zero(self):
        lane = TubMultiplier()
        lane.load(5, 2)
        run_to_completion(lane)
        assert lane.tick() == 0
        assert lane.product == 10

    def test_pure_unary_code_also_exact(self):
        lane = TubMultiplier(PureUnaryCode())
        assert lane.load(-7, 5) == 5
        assert run_to_completion(lane) == -35


class TestTrace:
    def test_trace_records_every_cycle(self):
        trace = tub_multiply(5, 6)
        assert trace.cycles == 3
        assert trace.trace.series("accumulator") == [10, 20, 30]

    def test_trace_zero_weight(self):
        trace = tub_multiply(5, 0)
        assert trace.product == 0
        assert trace.cycles == 0

    def test_range_check(self):
        with pytest.raises(Exception):
            tub_multiply(100, 1, spec=INT4)

    def test_render_mentions_operands(self):
        text = tub_multiply(3, -4, spec=INT4).render()
        assert "a=3" in text and "w=-4" in text


class TestLaneBlock:
    """The vectorized lane block mirrors per-lane ticking exactly."""

    def test_matches_scalar_lanes_exhaustive_int4(self):
        values = np.arange(-8, 8, dtype=np.int64)
        acts, weights = np.meshgrid(values, values)
        block = TubLaneBlock(acts.shape)
        cycles = block.load_block(acts, weights)
        products, burst = block.run_burst_vec()
        assert np.array_equal(products, acts * weights)
        assert np.array_equal(cycles, (np.abs(weights) + 1) // 2)
        assert burst == 4  # ceil(8 / 2)

    def test_step_vec_partial_progress_matches_ticks(self):
        acts = np.array([3, -5, 7, 0], dtype=np.int64)
        weights = np.array([-7, 6, 0, 9], dtype=np.int64)
        block = TubLaneBlock(4)
        block.load_block(acts, weights)
        lanes = [TubMultiplier() for _ in range(4)]
        for lane, a, w in zip(lanes, acts, weights):
            lane.load(int(a), int(w))
        products = np.zeros(4, dtype=np.int64)
        for _ in range(3):  # three single-cycle jumps
            products += block.step_vec(1)
            for lane in lanes:
                if lane.busy:
                    lane.tick()
            assert list(products) == [lane.product for lane in lanes]

    def test_silent_mask_is_zero_weights(self):
        block = TubLaneBlock(3)
        block.load_block(np.array([1, 2, 3]), np.array([0, 5, 0]))
        assert list(block.silent_mask) == [True, False, True]
        block.run_burst_vec()
        # Drained lanes are not retroactively "silent".
        assert list(block.silent_mask) == [True, False, True]

    def test_step_before_load_raises(self):
        with pytest.raises(SimulationError):
            TubLaneBlock(2).step_vec()

    def test_shape_mismatch_raises(self):
        with pytest.raises(SimulationError):
            TubLaneBlock(3).load_block(np.zeros(2), np.zeros(2))
