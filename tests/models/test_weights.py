"""Tests for synthetic weight generation."""

import numpy as np
import pytest

from repro.errors import CalibrationError
from repro.models.weights import (
    MODEL_SYNTHESIS,
    WeightSynthesisSpec,
    load_quantized_model,
    synthesize_layer_weights,
)
from repro.models.zoo import MODEL_NAMES, build_model
from repro.utils.intrange import INT4, INT8
from repro.utils.rng import make_rng
from tests.oracles import three_draw_layer_weights


class TestSynthesisSpec:
    def test_validation(self):
        with pytest.raises(CalibrationError):
            WeightSynthesisSpec(laplace_fraction=1.5)
        with pytest.raises(CalibrationError):
            WeightSynthesisSpec(zero_inflation=1.0)

    def test_zero_inflation_produces_zeros(self):
        layer = build_model("resnet18").layers[0]
        spec = WeightSynthesisSpec(0.0, 0.5)
        weights = synthesize_layer_weights(
            layer, spec, make_rng("test", 0)
        )
        assert np.mean(weights == 0.0) > 0.4

    def test_shape_matches_layer(self):
        layer = build_model("resnet18").layers[0]
        weights = synthesize_layer_weights(
            layer, WeightSynthesisSpec(), make_rng("test", 1)
        )
        assert weights.shape == layer.weight_shape

    def test_he_scaled_std(self):
        layer = build_model("resnet18").layers[0]
        weights = synthesize_layer_weights(
            layer, WeightSynthesisSpec(0.0, 0.0), make_rng("test", 2)
        )
        expected = np.sqrt(2.0 / layer.fan_in)
        assert np.std(weights) == pytest.approx(expected, rel=0.1)


class TestQuantizedModel:
    def test_deterministic(self):
        a = load_quantized_model("resnet18", scale=0.25)
        b = load_quantized_model("resnet18", scale=0.25)
        assert a.word_sparsity() == b.word_sparsity()
        assert np.array_equal(a.layers[0].codes, b.layers[0].codes)

    def test_codes_in_range(self):
        model = load_quantized_model("resnet18", scale=0.25)
        for q in model.layers:
            assert q.codes.max() <= 127
            assert q.codes.min() >= -128

    def test_int4_precision(self):
        model = load_quantized_model(
            "resnet18", precision=INT4, scale=0.25
        )
        for q in model.layers:
            assert q.codes.max() <= 7
            assert q.codes.min() >= -8

    def test_iter_weight_tensors_int64(self):
        model = load_quantized_model("resnet18", scale=0.25)
        layer, codes = next(model.iter_weight_tensors())
        assert codes.dtype == np.int64
        assert codes.shape == layer.weight_shape

    def test_word_sparsity_between_0_and_1(self):
        model = load_quantized_model("mobilenet_v2", scale=0.25)
        assert 0.0 < model.word_sparsity() < 0.25

    def test_scales_positive(self):
        model = load_quantized_model("resnet18", scale=0.25)
        assert all(q.scale > 0 for q in model.layers)

    def test_custom_synthesis_override(self):
        dense = load_quantized_model(
            "resnet18",
            scale=0.25,
            synthesis=WeightSynthesisSpec(0.0, 0.0),
        )
        sparse = load_quantized_model(
            "resnet18",
            scale=0.25,
            synthesis=WeightSynthesisSpec(0.0, 0.3),
        )
        assert sparse.word_sparsity() > dense.word_sparsity() + 0.2


class TestStreamExactDraw:
    """The draw transforms only the uniforms of Laplace weights, yet
    must equal the three-draw formula bit for bit and leave the
    generator where the formula leaves it."""

    @pytest.mark.parametrize("scale", (0.06, 0.25))
    @pytest.mark.parametrize("name", MODEL_NAMES + ("tiny_llm",))
    def test_every_layer_equals_the_three_draw_formula(self, name, scale):
        spec = MODEL_SYNTHESIS.get(name, WeightSynthesisSpec())
        mixtures = (spec, WeightSynthesisSpec(0.5, 0.1))
        drawn = 0
        for index, layer in enumerate(build_model(name, scale).layers):
            if not layer.is_weighted:
                continue
            for mixture in mixtures:
                rng = make_rng("weights", name, index)
                oracle_rng = make_rng("weights", name, index)
                actual = synthesize_layer_weights(layer, mixture, rng)
                expected = three_draw_layer_weights(
                    layer, mixture, oracle_rng
                )
                assert actual.dtype == expected.dtype == np.float32
                assert np.array_equal(
                    actual.view(np.uint32), expected.view(np.uint32)
                ), f"{layer.name} {mixture}"
                assert rng.bit_generator.state == \
                    oracle_rng.bit_generator.state, layer.name
            drawn += layer.weight_count
        # Non-vacuous: the wide mixture makes half the weights Laplace.
        assert drawn > 1000

    def test_a_zero_uniform_falls_back_to_the_sampler(self):
        """NumPy's Laplace sampler redraws a uniform of exactly 0.0, so
        a zero among the draws rewinds the generator and runs the
        sampler itself: equal to the formula on the same stream."""

        class ZeroFirst:
            """A generator whose every uniform draw starts with 0.0."""

            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)
                self.bit_generator = self.rng.bit_generator
                self.laplace_calls = 0

            def normal(self, *args, **kwargs):
                return self.rng.normal(*args, **kwargs)

            def laplace(self, *args, **kwargs):
                self.laplace_calls += 1
                return self.rng.laplace(*args, **kwargs)

            def random(self, count):
                values = self.rng.random(count)
                values[0] = 0.0
                return values

        layer = build_model("resnet18", 0.25).layers[1]
        spec = WeightSynthesisSpec(0.3, 0.05)
        stub, oracle = ZeroFirst(7), ZeroFirst(7)
        actual = synthesize_layer_weights(layer, spec, stub)
        expected = three_draw_layer_weights(layer, spec, oracle)
        assert stub.laplace_calls == 1
        assert np.array_equal(
            actual.view(np.uint32), expected.view(np.uint32)
        )
        assert stub.bit_generator.state == oracle.bit_generator.state
        # Without a zero the sampler never runs.
        plain = ZeroFirst(7)
        plain.random = plain.rng.random
        synthesize_layer_weights(layer, spec, plain)
        assert plain.laplace_calls == 0
