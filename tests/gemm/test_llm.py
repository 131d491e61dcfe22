"""Tests for the LLM projection extension."""

import numpy as np
import pytest

from repro.errors import DataflowError
from repro.gemm.llm import (
    TINY_LLM,
    TransformerLayerDims,
    TubMatVec,
    synthesize_llm_weights,
    token_step_latency,
)
from repro.nvdla.config import CoreConfig
from repro.utils.intrange import INT4
from repro.utils.rng import make_rng


class TestTubMatVec:
    def test_exact_projection(self):
        rng = make_rng("llm-test")
        engine = TubMatVec(CoreConfig(k=4, n=4), weight_precision=4)
        weights = INT4.random_array(rng, (8, 12))
        activations = engine.activation_spec.random_array(rng, 12)
        result = engine.project(weights, activations)
        assert np.array_equal(result.output, weights @ activations)

    def test_tile_count(self):
        rng = make_rng("llm-tiles")
        engine = TubMatVec(CoreConfig(k=4, n=4), weight_precision=4)
        weights = INT4.random_array(rng, (8, 12))
        result = engine.project(
            weights, engine.activation_spec.random_array(rng, 12)
        )
        assert result.tiles == 2 * 3  # ceil(8/4) x ceil(12/4)

    def test_worst_case_bounds(self):
        for precision, cycles in ((4, 4), (2, 1)):
            engine = TubMatVec(weight_precision=precision)
            worst = engine.weight_spec.max_magnitude
            assert engine.code.cycles_for_magnitude(worst) == cycles

    def test_int2_matches_binary_latency(self):
        """The ultra-low-precision headline: INT2 bursts are all 1 cycle,
        so the tub GEMV equals the binary tile count."""
        rng = make_rng("llm-int2")
        engine = TubMatVec(CoreConfig(k=8, n=8), weight_precision=2)
        weights = engine.weight_spec.random_array(rng, (16, 16))
        result = engine.project(
            weights, engine.activation_spec.random_array(rng, 16)
        )
        assert result.tempus_cycles == result.binary_cycles
        assert result.slowdown == 1.0

    def test_weight_range_enforced(self):
        engine = TubMatVec(weight_precision=4)
        with pytest.raises(Exception):
            engine.project(np.array([[100]]), np.array([1]))

    def test_shape_validation(self):
        engine = TubMatVec()
        with pytest.raises(DataflowError):
            engine.project(np.zeros((4, 4)), np.zeros(5))
        with pytest.raises(DataflowError):
            engine.project(np.zeros(4), np.zeros(4))


class TestTokenStep:
    def test_all_projections_present(self):
        dims = TransformerLayerDims(64, 2, 128)
        results = token_step_latency(dims, 4, CoreConfig(k=8, n=8))
        assert set(results) == {
            "attn.q", "attn.k", "attn.v", "attn.o",
            "mlp.up", "mlp.gate", "mlp.down",
        }

    def test_lower_precision_lower_slowdown(self):
        dims = TransformerLayerDims(64, 2, 128)
        config = CoreConfig(k=8, n=8)
        slowdowns = {}
        for width in (8, 4, 2):
            results = token_step_latency(dims, width, config)
            tempus = sum(r.tempus_cycles for r in results.values())
            binary = sum(r.binary_cycles for r in results.values())
            slowdowns[width] = tempus / binary
        assert slowdowns[2] < slowdowns[4] < slowdowns[8]
        assert slowdowns[2] == pytest.approx(1.0)

    def test_weight_synthesis_shapes(self):
        weights = synthesize_llm_weights(TINY_LLM, 4)
        assert weights["mlp.up"].shape == (TINY_LLM.d_ff, TINY_LLM.d_model)
        assert abs(int(weights["attn.q"].max())) <= 7
