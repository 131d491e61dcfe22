"""Tests for burst-aware tile scheduling (future-work extension)."""

import math

import numpy as np
import pytest

from repro.core.latency import burst_cycle_map, tile_max_magnitudes
from repro.core.scheduling import search_stage_orders
from repro.core.tempus_core import TempusCore
from repro.errors import DataflowError
from repro.models.weights import load_quantized_model
from repro.nvdla.config import CoreConfig
from repro.nvdla.dataflow import golden_conv2d
from repro.profiling.tiling import group_stack
from repro.runtime.backends import get_backend, registered_backends
from repro.runtime.executor import _stage_cycle_line
from repro.runtime.lowering import lower_model
from repro.unary.encoding import TwosUnaryCode
from repro.utils.intrange import INT8
from repro.utils.rng import make_rng


def _search_one(weights, config, code=None):
    """:func:`search_stage_orders` on a one-group stack: (kernel order,
    channel order, baseline cycles, optimized cycles)."""
    kernel_orders, channel_orders, baselines, optimized = \
        search_stage_orders(np.asarray(weights)[np.newaxis], config, code)
    return (kernel_orders[0], channel_orders[0], int(baselines[0]),
            int(optimized[0]))


def _permute(weights, kernel_order, channel_order):
    return np.asarray(weights)[kernel_order][:, channel_order]


class TestOptimization:
    config = CoreConfig(k=2, n=2, precision=INT8)

    def test_never_worse(self, rng):
        for _ in range(20):
            weights = INT8.random_array(rng, (4, 6, 1, 1))
            _, _, baseline, optimized = _search_one(weights, self.config)
            assert optimized <= baseline

    def test_finds_known_win(self):
        """Channels alternating small/large magnitudes: sorting pairs the
        two large channels into one tile and halves the cost."""
        weights = np.zeros((2, 4, 1, 1), dtype=np.int64)
        weights[:, 0] = 100
        weights[:, 1] = 2
        weights[:, 2] = 100
        weights[:, 3] = 2
        _, channel_order, baseline, optimized = _search_one(
            weights, self.config
        )
        # baseline: two tiles both holding a 100 -> 2 x 50 cycles
        assert baseline == 100
        # sorted: one tile of 100s (50) + one tile of 2s (1)
        assert optimized == 51
        assert set(channel_order[:2]) == {0, 2}

    def test_identity_when_no_gain(self):
        weights = np.full((2, 2, 1, 1), 50, dtype=np.int64)
        kernel_order, channel_order, baseline, optimized = _search_one(
            weights, self.config
        )
        assert optimized == baseline
        assert list(kernel_order) == [0, 1]
        assert list(channel_order) == [0, 1]

    def test_bad_rank_raises(self):
        with pytest.raises(DataflowError):
            search_stage_orders(np.zeros((2, 2)), self.config)


class TestSemanticsPreserved:
    def test_permuted_conv_matches_original(self):
        """Scheduled weights + permuted activations + restored outputs
        reproduce the original convolution exactly."""
        rng = make_rng("sched-semantics")
        config = CoreConfig(k=2, n=2, precision=INT8)
        activations = INT8.random_array(rng, (6, 5, 5))
        weights = INT8.random_array(rng, (4, 6, 3, 3))
        kernel_order, channel_order, _, _ = _search_one(weights, config)

        original = golden_conv2d(activations, weights, 1, 1)
        permuted = golden_conv2d(
            activations[channel_order],
            _permute(weights, kernel_order, channel_order),
            1,
            1,
        )
        restored = permuted[np.argsort(kernel_order)]
        assert np.array_equal(restored, original)

    def test_scheduled_layer_runs_faster_on_tempus(self):
        """End to end: the scheduled layout reduces TempusCore cycles
        while producing the same (restored) output."""
        rng = make_rng("sched-e2e")
        config = CoreConfig(k=2, n=4, precision=INT8)
        activations = INT8.random_array(rng, (8, 4, 4))
        # mix of tiny and huge channels to give the scheduler room
        weights = INT8.random_array(rng, (4, 8, 1, 1))
        weights[:, ::2] = np.sign(weights[:, ::2]) * 1  # tiny channels
        kernel_order, channel_order, _, _ = _search_one(weights, config)

        base = TempusCore(config).run_layer(activations, weights)
        opt = TempusCore(config).run_layer(
            activations[channel_order],
            _permute(weights, kernel_order, channel_order),
        )
        assert np.array_equal(
            opt.output[np.argsort(kernel_order)], base.output
        )
        assert opt.cycles <= base.cycles


# ---------------------------------------------------------------------
# Stage-batched search vs a per-group reference loop.  The reference
# pads every group to whole tiles (as the MAC array sees them) and
# schedules one group at a time; the stage search must agree with it
# group for group on every zoo stage and on seeded random stacks.
ZOO = ("mobilenet_v2", "resnet18", "shufflenet_v2", "googlenet", "tiny_llm")
GEOMETRIES = ((16, 16), (3, 5))  # 3 x 5 forces edge padding


def _reference_map(weights, config, code):
    """One group's burst map from a zero-padded tile view."""
    kernels, channels, kernel_h, kernel_w = weights.shape
    groups = math.ceil(kernels / config.k)
    blocks = math.ceil(channels / config.n)
    padded = np.zeros(
        (groups * config.k, blocks * config.n, kernel_h, kernel_w),
        dtype=np.int64,
    )
    padded[:kernels, :channels] = weights
    tiles = np.abs(padded).reshape(
        groups, config.k, blocks, config.n, kernel_h, kernel_w
    )
    maxima = tiles.max(axis=(1, 3))
    return code.step_cycles_array(maxima) + config.burst_overhead


def _reference_schedule(weights, config, code):
    """One group's search: (kernel order, channel order, baseline,
    optimized, scheduled weights)."""
    magnitudes = np.abs(weights.astype(np.int64))
    kernel_order = np.argsort(
        magnitudes.max(axis=(1, 2, 3)), kind="stable"
    )[::-1]
    channel_order = np.argsort(
        magnitudes.max(axis=(0, 2, 3)), kind="stable"
    )[::-1]
    baseline = int(_reference_map(weights, config, code).sum())
    permuted = weights[kernel_order][:, channel_order]
    optimized = int(_reference_map(permuted, config, code).sum())
    if optimized >= baseline:
        kernels, channels = weights.shape[:2]
        return (np.arange(kernels), np.arange(channels), baseline,
                baseline, weights)
    return kernel_order, channel_order, baseline, optimized, permuted


def _assert_stage_matches_loop(stack, config, code):
    """Stage search, stacked burst map and tile maxima against the
    per-group reference loop.  Returns each group's reference
    (kernel order, channel order, scheduled weights)."""
    kernel_orders, channel_orders, baselines, optimizeds = \
        search_stage_orders(stack, config, code)
    maps = burst_cycle_map(stack, config, code)
    maxima = tile_max_magnitudes(stack, config.k, config.n)
    assert len(baselines) == len(stack)
    references = []
    for group, weights in enumerate(stack):
        expected_map = _reference_map(weights, config, code)
        assert np.array_equal(maps[group], expected_map)
        assert np.array_equal(
            burst_cycle_map(weights, config, code), expected_map
        )
        assert np.array_equal(
            code.step_cycles_array(maxima[group]) + config.burst_overhead,
            expected_map,
        )
        kernel_order, channel_order, baseline, optimized, permuted = \
            _reference_schedule(weights, config, code)
        assert np.array_equal(kernel_orders[group], kernel_order)
        assert np.array_equal(channel_orders[group], channel_order)
        assert baselines[group] == baseline
        assert optimizeds[group] == optimized
        # Searched alone, the group gets the same schedule.
        single = _search_one(weights, config, code)
        assert np.array_equal(single[0], kernel_order)
        assert np.array_equal(single[1], channel_order)
        assert single[2:] == (baseline, optimized)
        references.append((kernel_order, channel_order, permuted))
    return references


def _assert_cycle_lines_match_loop(stage, code):
    """The executor's one call per stage against the sum of the
    backends' per-group lines."""
    for name in registered_backends():
        backend = get_backend(name)
        per_pixel = fixed = 0
        for weights in stage.scheduled_weights():
            group_per_pixel, group_fixed = backend.cycle_line(
                weights, stage.config, code
            )
            per_pixel += group_per_pixel
            fixed += group_fixed
        assert _stage_cycle_line(stage, backend, code) == (
            per_pixel, fixed,
        ), (stage.name, name)


@pytest.mark.parametrize("model", ZOO)
def test_zoo_stages_match_per_group_loop(model):
    """Every lowered stage of five zoo models, at three precisions and
    two geometries: schedules, tile-order weights, burst maps and all
    four backends' cycle lines equal the per-group loop."""
    code = TwosUnaryCode()
    for precision in ("int8", "int4", "int2"):
        quantized = load_quantized_model(model, precision, scale=0.25)
        weighted = [q for q in quantized.layers if q.layer.is_weighted]
        for k, n in GEOMETRIES:
            config = CoreConfig(k=k, n=n, precision=quantized.precision)
            net = lower_model(quantized, config, code=code)
            assert len(net.stages) == len(weighted)
            for stage, layer in zip(net.stages, weighted):
                stack = group_stack(layer.codes64, stage.groups)
                references = _assert_stage_matches_loop(
                    stack, stage.config, code
                )
                scheduled = stage.scheduled_weights()
                for group, (kernel_order, channel_order, permuted) in \
                        enumerate(references):
                    assert np.array_equal(scheduled[group], permuted)
                    assert np.array_equal(
                        stage.kernel_order[group], kernel_order
                    )
                    assert np.array_equal(
                        stage.channel_order[group], channel_order
                    )
                _assert_cycle_lines_match_loop(stage, code)


def test_seeded_stacks_match_per_group_loop(fuzz_rng):
    """Random (G, K, C, R, S) stacks at random geometries, with
    per-channel magnitude spread so schedules find real wins."""
    code = TwosUnaryCode()
    for _ in range(40):
        k, n = (int(v) for v in fuzz_rng.integers(1, 7, 2))
        groups = int(fuzz_rng.integers(1, 6))
        kernels, channels = (int(v) for v in fuzz_rng.integers(1, 21, 2))
        kernel_h, kernel_w = (int(v) for v in fuzz_rng.integers(1, 4, 2))
        shape = (groups, kernels, channels, kernel_h, kernel_w)
        stack = INT8.random_array(fuzz_rng, shape)
        spread = fuzz_rng.integers(0, 8, (groups, 1, channels, 1, 1))
        stack = stack >> spread
        config = CoreConfig(k=k, n=n, precision=INT8)
        _assert_stage_matches_loop(stack, config, code)
        for name in registered_backends():
            backend = get_backend(name)
            lines = [backend.cycle_line(w, config, code) for w in stack]
            assert backend.cycle_line(stack, config, code) == (
                sum(line[0] for line in lines),
                sum(line[1] for line in lines),
            )


def test_stage_search_bad_rank_raises():
    config = CoreConfig(k=2, n=2, precision=INT8)
    with pytest.raises(DataflowError):
        search_stage_orders(np.zeros((2, 2, 1, 1)), config)
