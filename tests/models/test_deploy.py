"""Tests for deploying the trained CNN onto the simulated accelerator."""

import dataclasses

import numpy as np
import pytest

from repro.models.accuracy import SmallCnn, make_synthetic_dataset
from repro.models.deploy import compile_small_cnn, evaluate_on_accelerator
from repro.nvdla.pdp import PdpConfig
from repro.runtime.backends import registered_backends
from repro.runtime.executor import BatchExecutor
from repro.runtime.runner import run_per_image
from repro.utils.intrange import int_spec

BACKENDS = registered_backends()


def on_backend(net, engine):
    """The compiled network with every stage recorded on ``engine``."""
    return dataclasses.replace(net, stages=tuple(
        dataclasses.replace(stage, backend=engine) for stage in net.stages
    ))


@pytest.fixture(scope="module")
def setup():
    dataset = make_synthetic_dataset(train_per_class=40, test_per_class=10)
    model = SmallCnn()
    model.train(dataset, epochs=5)
    compiled = compile_small_cnn(model, dataset, precision=8)
    return dataset, model, compiled


class TestCompilation:
    def test_stage_structure(self, setup):
        _, _, compiled = setup
        stages = compiled.network.stages
        assert [s.name for s in stages] == ["conv1", "conv2", "fc"]
        assert [s.pool for s in stages] == [
            None, PdpConfig("max", kernel=2), PdpConfig("max", kernel=2),
        ]
        assert compiled.network.input_shape == (1, 12, 12)
        # 3x3 kernels and pools mix rows: no decode-row reuse.
        assert not compiled.network.token_independent

    def test_weights_quantized_in_range(self, setup):
        _, _, compiled = setup
        for stage in compiled.network.stages:
            assert np.abs(stage.weights).max() <= 128

    def test_fc_lowered_to_conv(self, setup):
        _, _, compiled = setup
        fc = compiled.network.stages[-1]
        assert fc.weights.shape == (1, 10, 16, 3, 3)
        assert fc.sdp.out_precision == int_spec(24)

    def test_output_shape_is_logits(self, setup):
        dataset, _, compiled = setup
        codes = compiled.input_quantizer.quantize(dataset.test_x[:1])
        output, _, _ = BatchExecutor(
            compiled.network, "binary"
        ).run_batch(codes)
        assert output.shape == (1, 10, 1, 1)


class TestAcceleratorAccuracy:
    def test_int8_accuracy_close_to_fp32(self, setup):
        dataset, model, compiled = setup
        fp32 = model.evaluate(dataset.test_x, dataset.test_y)
        accelerated = evaluate_on_accelerator(
            compiled, dataset.test_x, dataset.test_y, limit=60
        )
        assert accelerated > fp32 - 0.08

    @pytest.mark.parametrize("engine", BACKENDS)
    def test_accuracy_equal_on_every_backend(self, setup, engine):
        dataset, _, compiled = setup
        reference = evaluate_on_accelerator(
            compiled, dataset.test_x, dataset.test_y,
            engine="tempus", limit=30,
        )
        accuracy = evaluate_on_accelerator(
            compiled, dataset.test_x, dataset.test_y,
            engine=engine, limit=30,
        )
        assert accuracy == reference

    @pytest.mark.parametrize("engine", BACKENDS)
    def test_batched_logits_match_real_cores(self, setup, engine):
        """The batched executor against the per-image run through each
        backend's real core: logits bit for bit, cycles stage by stage,
        and every stage's output alive (not all zeros)."""
        dataset, _, compiled = setup
        net = on_backend(compiled.network, engine)
        codes = compiled.input_quantizer.quantize(dataset.test_x[:8])
        output, stages, cycles = BatchExecutor(net).run_batch(codes)
        reference, ref_stages, ref_cycles = run_per_image(
            net, codes, mode="fast"
        )
        assert np.array_equal(output, reference)
        assert cycles == ref_cycles > 0
        assert [(s.name, s.conv_cycles) for s in stages] == [
            (s.name, s.conv_cycles) for s in ref_stages
        ]
        for depth in range(1, len(net.stages) + 1):
            prefix = dataclasses.replace(net, stages=net.stages[:depth])
            stage_out, _, _ = BatchExecutor(prefix).run_batch(codes)
            stage = net.stages[depth - 1]
            assert np.count_nonzero(stage_out) > 0, stage.name

    def test_int4_still_learns(self, setup):
        dataset, model, _ = setup
        compiled4 = compile_small_cnn(model, dataset, precision=4)
        accuracy = evaluate_on_accelerator(
            compiled4, dataset.test_x, dataset.test_y, limit=40
        )
        assert accuracy > 0.6  # chance is 0.1
