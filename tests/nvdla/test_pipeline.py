"""Tests for the full inference pipeline (conv core + SDP + PDP) on a
hand-built network, run by the one network executor
(:class:`~repro.runtime.executor.BatchExecutor`) and by its per-image
oracle through the real cores
(:func:`~repro.runtime.runner.run_per_image`)."""

import numpy as np
import pytest

from repro.errors import DataflowError
from repro.models.layers import ConvLayerSpec
from repro.nvdla.config import CoreConfig
from repro.nvdla.pdp import PdpConfig
from repro.nvdla.sdp import SdpConfig
from repro.quant.profile import precision_profile
from repro.runtime.executor import BatchExecutor
from repro.runtime.lowering import CompiledNetwork, StagePlan, identity_orders
from repro.runtime.runner import run_per_image
from repro.unary.encoding import TwosUnaryCode
from repro.utils.intrange import INT8
from repro.utils.rng import make_rng

CONFIG = CoreConfig(k=4, n=4, precision=INT8)


def conv_stage(name, weights, sdp, in_size, engine, pool=None):
    """A dense 3x3 'same' conv stage reading an ``in_size`` square,
    accounted on ``engine``."""
    out_channels, in_channels, kernel_h, kernel_w = weights.shape
    stack = np.asarray(weights, dtype=np.int64)[np.newaxis]
    kernel_order, channel_order = identity_orders(stack)
    return StagePlan(
        name=name,
        layer=ConvLayerSpec(
            name, in_channels, out_channels, kernel_h, kernel_w,
            padding=1, in_height=in_size, in_width=in_size,
        ),
        weights=stack,
        kernel_order=kernel_order,
        channel_order=channel_order,
        sdp=sdp,
        fit_channels=in_channels,
        pool=pool,
        fit_hw=(in_size, in_size),
        precision=INT8,
        config=CONFIG,
        backend=engine,
    )


def build_network(label, engine="binary", depth=2):
    """conv(3->8) -> relu/requant -> maxpool -> conv(8->4) -> relu, with
    weights drawn from the ``label`` stream (so every engine gets the
    same network)."""
    rng = make_rng(label)
    stages = (
        conv_stage(
            "conv1",
            INT8.random_array(rng, (8, 3, 3, 3)),
            SdpConfig(
                out_precision=INT8,
                bias=rng.integers(-100, 100, 8),
                multiplier=3,
                shift=12,
                activation="relu",
            ),
            8,
            engine,
        ),
        conv_stage(
            "conv2",
            INT8.random_array(rng, (4, 8, 3, 3)),
            SdpConfig(
                out_precision=INT8,
                multiplier=5,
                shift=13,
                activation="relu",
            ),
            4,
            engine,
            pool=PdpConfig("max", kernel=2),
        ),
    )[:depth]
    return CompiledNetwork(
        name="toy",
        config=CONFIG,
        precision=INT8,
        code=TwosUnaryCode(),
        stages=stages,
        input_shape=(3, 8, 8),
        scheduling=False,
        profile=precision_profile(INT8),
    )


def images(label, batch=1):
    return INT8.random_array(make_rng(label, "input"), (batch, 3, 8, 8))


class TestPipeline:
    def test_shapes_flow_through(self):
        net = build_network("pipe-shapes")
        output, stages, _ = BatchExecutor(net).run_batch(
            images("pipe-shapes")
        )
        assert output.shape == (1, 4, 4, 4)
        assert [s.kind for s in stages] == ["conv", "pool", "conv"]

    def test_outputs_in_precision(self):
        net = build_network("pipe-precision", "tempus")
        output, _, _ = BatchExecutor(net).run_batch(
            images("pipe-precision")
        )
        assert output.max() <= 127
        assert output.min() >= -128

    def test_engines_bit_exact(self):
        """The whole-network drop-in guarantee, through the real cores."""
        batch = images("pipe-exact")
        binary, _, binary_cycles = run_per_image(
            build_network("pipe-exact", "binary"), batch
        )
        tempus, _, tempus_cycles = run_per_image(
            build_network("pipe-exact", "tempus"), batch
        )
        assert np.array_equal(binary, tempus)
        assert np.count_nonzero(tempus) > 0
        assert tempus_cycles > binary_cycles

    def test_cycle_accounting(self):
        net = build_network("pipe-cycles")
        _, stages, cycles = BatchExecutor(net).run_batch(
            images("pipe-cycles")
        )
        conv_stages = [s for s in stages if s.kind == "conv"]
        assert cycles == sum(s.conv_cycles for s in conv_stages)
        assert all(s.conv_cycles > 0 for s in conv_stages)

    def test_unknown_engine(self):
        with pytest.raises(DataflowError):
            BatchExecutor(build_network("pipe-engine"), "gpu")

    def test_relu_pipeline_is_nonnegative_midway(self):
        net = build_network("pipe-relu", depth=1)
        output, _, _ = BatchExecutor(net).run_batch(images("pipe-relu"))
        assert output.min() >= 0


class TestPipelineBatch:
    @pytest.mark.parametrize("engine", ["binary", "tempus"])
    def test_run_batch_matches_per_image(self, engine):
        net = build_network("pipe-batch", engine)
        batch = images("pipe-batch", 4)
        output, stages, cycles = BatchExecutor(net).run_batch(batch)
        reference, ref_stages, ref_cycles = run_per_image(net, batch)
        assert np.array_equal(output, reference)
        assert [s.conv_cycles for s in stages] == [
            s.conv_cycles for s in ref_stages
        ]
        # Cycle accounting: B back-to-back images on the core.
        _, _, single = run_per_image(net, batch[:1])
        assert cycles == ref_cycles == 4 * single

    def test_run_batch_stage_records(self):
        net = build_network("pipe-batch-records")
        output, stages, _ = BatchExecutor(net).run_batch(
            images("pipe-batch-records", 2)
        )
        assert [s.kind for s in stages] == ["conv", "pool", "conv"]
        assert output.shape[0] == 2

    def test_run_batch_rejects_bad_rank(self):
        executor = BatchExecutor(build_network("pipe-batch-rank"))
        with pytest.raises(DataflowError):
            executor.run_batch(images("pipe-batch-rank")[0])
