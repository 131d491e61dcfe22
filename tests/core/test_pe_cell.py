"""Tests for the tub PE cell."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.core.pe_cell import TubCellBlock, TubPeCell
from tests.oracles import run_burst


class TestDotProduct:
    def test_exact_dot_product(self, rng):
        cell = TubPeCell(8)
        feature = rng.integers(-128, 128, 8)
        weights = rng.integers(-128, 128, 8)
        cell.load_atom(feature, weights)
        result, _cycles = run_burst(cell)
        assert result == int(np.dot(feature, weights))

    def test_many_random_atoms(self, rng):
        cell = TubPeCell(4)
        for _ in range(50):
            feature = rng.integers(-128, 128, 4)
            weights = rng.integers(-128, 128, 4)
            cell.load_atom(feature, weights)
            result, _ = run_burst(cell)
            assert result == int(np.dot(feature, weights))


class TestBurstLength:
    def test_burst_is_max_lane_cycles(self, rng):
        cell = TubPeCell(4)
        burst = cell.load_atom(
            np.array([1, 1, 1, 1]), np.array([2, -9, 4, 0])
        )
        assert burst == 5  # ceil(9/2)
        _, cycles = run_burst(cell)
        assert cycles == 5

    def test_all_zero_weights_zero_burst(self):
        cell = TubPeCell(4)
        burst = cell.load_atom(np.ones(4), np.zeros(4))
        assert burst == 0
        assert not cell.busy

    def test_reload_resets_accumulator(self, rng):
        cell = TubPeCell(2)
        cell.load_atom(np.array([1, 1]), np.array([2, 2]))
        run_burst(cell)
        cell.load_atom(np.array([1, 1]), np.array([4, 4]))
        result, _ = run_burst(cell)
        assert result == 8


class TestSilentLanes:
    def test_counts_zero_weights(self):
        cell = TubPeCell(4)
        cell.load_atom(np.ones(4), np.array([0, 3, 0, 1]))
        assert cell.silent_lanes == 2

    def test_no_lanes_silent(self):
        cell = TubPeCell(2)
        cell.load_atom(np.ones(2), np.array([1, 2]))
        assert cell.silent_lanes == 0


class TestValidation:
    def test_bad_shapes_raise(self):
        cell = TubPeCell(4)
        with pytest.raises(SimulationError):
            cell.load_atom(np.ones(3), np.ones(4))

    def test_tick_before_load_raises(self):
        with pytest.raises(SimulationError):
            TubPeCell(2).tick()

    def test_invalid_n_raises(self):
        with pytest.raises(SimulationError):
            TubPeCell(0)

    def test_tree_sum_per_cycle(self):
        """Per-cycle tree output is the sum of signed lane pulses times
        activations."""
        cell = TubPeCell(2)
        cell.load_atom(np.array([3, 5]), np.array([2, -2]))
        tree = cell.tick()
        assert tree == 3 * 2 + 5 * (-2)
        assert not cell.busy


class TestCellBlock:
    """The vectorized (k, n) cell block matches k lockstepped PE cells."""

    def test_matches_scalar_cells(self, rng):
        k, n = 3, 5
        feature = rng.integers(-128, 128, n)
        weight_block = rng.integers(-128, 128, (k, n))
        block = TubCellBlock(k, n)
        burst = block.load_block(feature, weight_block)
        psums, cycles = block.run_burst_vec()

        cells = [TubPeCell(n) for _ in range(k)]
        scalar_burst = max(
            cell.load_atom(feature, weight_block[i])
            for i, cell in enumerate(cells)
        )
        assert burst == scalar_burst
        assert cycles == scalar_burst
        for i, cell in enumerate(cells):
            result, _ = run_burst(cell)
            assert psums[i] == result
        assert np.array_equal(psums, weight_block @ feature)

    def test_step_vec_partial_sums_track_cells(self, rng):
        k, n = 2, 3
        feature = np.array([2, -3, 4])
        weight_block = np.array([[5, 0, -6], [1, 7, 2]])
        block = TubCellBlock(k, n)
        block.load_block(feature, weight_block)
        cells = [TubPeCell(n) for _ in range(k)]
        for i, cell in enumerate(cells):
            cell.load_atom(feature, weight_block[i])
        partial_sums = np.zeros(k, dtype=np.int64)
        while block.busy:
            partial_sums += block.step_vec(1)
            for cell in cells:
                if cell.busy:
                    cell.tick()
            assert list(partial_sums) == [
                cell.partial_sum for cell in cells
            ]

    def test_silent_lanes_counts_whole_tile(self):
        block = TubCellBlock(2, 4)
        block.load_block(
            np.ones(4, dtype=np.int64),
            np.array([[0, 0, 0, 4], [0, 4, 0, 4]]),
        )
        assert block.silent_lanes == 5

    def test_all_zero_tile(self):
        block = TubCellBlock(2, 2)
        burst = block.load_block(np.ones(2), np.zeros((2, 2)))
        assert burst == 0
        psums, cycles = block.run_burst_vec()
        assert cycles == 0
        assert not psums.any()

    def test_validation(self):
        with pytest.raises(SimulationError):
            TubCellBlock(0, 2)
        with pytest.raises(SimulationError):
            TubCellBlock(2, 2).load_block(np.ones(3), np.ones((2, 2)))
        with pytest.raises(SimulationError):
            TubCellBlock(2, 2).run_burst_vec()
