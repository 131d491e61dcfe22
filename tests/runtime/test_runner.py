"""Tests for the batched NetworkRunner.

The load-bearing guarantee: the vectorized batched path is bit-identical
(outputs *and* cycle counts) to looping images through the real
convolution cores, on both engines — including the burst-level
simulation mode.
"""

import re

import numpy as np
import pytest

from repro.errors import DataflowError, PrecisionError, ReproError
from repro.nvdla.config import CoreConfig
from repro.runtime import NetworkRunner
from repro.serve import ShardedRunner


@pytest.fixture(scope="module")
def config():
    return CoreConfig(k=4, n=4)


def make_runner(config, engine, **kwargs):
    kwargs.setdefault("scale", 0.06)
    kwargs.setdefault("input_size", 16)
    return NetworkRunner(config, engine=engine, **kwargs)


class TestBatchedEqualsPerImage:
    @pytest.mark.parametrize("engine", ["tempus", "binary"])
    @pytest.mark.parametrize("model", ["mobilenet_v2", "resnet18"])
    def test_fast_reference(self, config, engine, model):
        runner = make_runner(config, engine)
        batched = runner.run(model, 4)
        reference = runner.run_per_image(model, 4)
        assert np.array_equal(batched.output, reference.output)
        assert batched.conv_cycles == reference.conv_cycles
        assert batched.batch_size == reference.batch_size == 4

    @pytest.mark.parametrize("engine", ["tempus", "binary"])
    def test_burst_simulation_reference(self, config, engine):
        """The real burst-level simulated pipeline reproduces the
        batched run bit for bit and cycle for cycle."""
        runner = make_runner(config, engine)
        batched = runner.run("shufflenet_v2", 2)
        simulated = runner.run_per_image(
            "shufflenet_v2", 2, mode="burst"
        )
        assert np.array_equal(batched.output, simulated.output)
        assert batched.conv_cycles == simulated.conv_cycles

    def test_asymmetric_kernels_inception(self, config):
        """InceptionV3's (1,7)/(7,1) kernels with asymmetric padding
        run batched and match the per-image reference."""
        runner = NetworkRunner(
            config, engine="tempus", scale=0.04, input_size=20
        )
        batched = runner.run("inception_v3", 2)
        reference = runner.run_per_image("inception_v3", 2)
        assert np.array_equal(batched.output, reference.output)
        assert batched.conv_cycles == reference.conv_cycles


class TestEngineAgreement:
    def test_outputs_bit_identical_across_engines(self, config):
        tempus = make_runner(config, "tempus").run("mobilenet_v2", 4)
        binary = make_runner(config, "binary").run("mobilenet_v2", 4)
        assert np.array_equal(tempus.output, binary.output)
        assert tempus.conv_cycles > binary.conv_cycles  # tub bursts > 1

    def test_batch_items_are_independent(self, config):
        """Each image's output equals its own single-image run."""
        runner = make_runner(config, "tempus")
        images = runner.synthesize_batch("resnet18", 3)
        batched = runner.run("resnet18", images)
        for index in range(3):
            single = runner.run("resnet18", images[index])
            assert np.array_equal(
                batched.output[index], single.output[0]
            )

    def test_cycles_scale_linearly_with_batch(self, config):
        runner = make_runner(config, "tempus")
        one = runner.run("resnet18", runner.synthesize_batch("resnet18", 1))
        four = runner.run("resnet18", 4)
        assert four.conv_cycles == 4 * one.conv_cycles


class TestScheduling:
    def test_scheduling_preserves_outputs_and_saves_cycles(self, config):
        scheduled = make_runner(config, "tempus").run("shufflenet_v2", 2)
        plain = make_runner(
            config, "tempus", scheduling=False
        ).run("shufflenet_v2", 2)
        assert np.array_equal(scheduled.output, plain.output)
        assert scheduled.conv_cycles < plain.conv_cycles

    def test_scheduling_does_not_change_binary_cycles(self, config):
        scheduled = make_runner(config, "binary").run("resnet18", 2)
        plain = make_runner(
            config, "binary", scheduling=False
        ).run("resnet18", 2)
        assert np.array_equal(scheduled.output, plain.output)
        assert scheduled.conv_cycles == plain.conv_cycles


class TestInputsAndErrors:
    def test_unknown_engine_rejected(self, config):
        with pytest.raises(DataflowError):
            NetworkRunner(config, engine="analog")

    def test_unknown_model_rejected(self, config):
        with pytest.raises(DataflowError):
            make_runner(config, "tempus").run("lenet", 2)

    def test_bad_batch_shape_rejected(self, config):
        runner = make_runner(config, "tempus")
        with pytest.raises(DataflowError):
            runner.run("resnet18", np.zeros((2, 5, 16, 16), np.int64))

    def test_zero_batch_rejected(self, config):
        with pytest.raises(DataflowError):
            make_runner(config, "tempus").run("resnet18", 0)

    @pytest.mark.parametrize("path", ["in_process", "direct", "sharded"])
    def test_empty_batch_rejected(self, config, path):
        """A (0, C, H, W) batch fails with a ``DataflowError`` naming
        its shape on every entry point, not with a NumPy reshape error
        or an empty result."""
        runner = make_runner(config, "tempus")
        images = runner.synthesize_batch("resnet18", 1)[:0]
        expected = re.escape(str(images.shape))
        if path == "in_process":
            with pytest.raises(DataflowError, match=expected):
                runner.run("resnet18", images)
        elif path == "direct":
            executor = runner.executor("resnet18")
            with pytest.raises(DataflowError, match=expected):
                executor.run_batch(images)
        else:
            with ShardedRunner(
                workers=1, config=config, engine="tempus", scale=0.06,
                input_size=16,
            ) as server:
                with pytest.raises(DataflowError, match=expected):
                    server.run("resnet18", images)

    def test_run_checks_input_values_once(self, config, monkeypatch):
        """``run`` range-checks a batch once (in the executor), also on
        decode steps whose earlier rows the executor reuses (only the
        new rows are checked then), and both paths still reject
        out-of-range and fractional values."""
        runner = make_runner(config, "tempus")
        net = runner.compile("resnet18")
        images = runner.synthesize_batch("resnet18", 2)
        llm = make_runner(config, "tempus", input_size=8)
        stream = llm.synthesize_batch("tiny_llm", 1)
        calls = []
        check = type(net.precision).check_array

        def counted(spec, values):
            calls.append(np.shape(values))
            return check(spec, values)

        monkeypatch.setattr(
            type(net.precision), "check_array", counted
        )
        runner.run("resnet18", images)
        assert calls == [images.shape]
        for step in range(1, stream.shape[2] + 1):
            calls.clear()
            llm.run("tiny_llm", stream[:, :, :step])
            assert calls == [stream[:, :, step - 1 : step].shape], step
        monkeypatch.undo()
        for bad in (net.precision.max_value + 1, 0.5):
            rejected = images.astype(type(bad))
            rejected[1, 0, 0, 0] = bad
            with pytest.raises(ReproError):
                runner.run("resnet18", rejected)
            with pytest.raises(ReproError):
                runner.run_per_image("resnet18", rejected)

    @pytest.mark.parametrize("dtype", ["m8[s]", "M8[s]"])
    def test_time_dtype_batches_rejected(self, config, dtype):
        """In-range codes carried as timedelta64 or datetime64 are not
        integers: the executor (``run_batch``, behind ``run``) and the
        per-image oracle both refuse them."""
        runner = make_runner(config, "tempus")
        images = runner.synthesize_batch("resnet18", 2).astype(dtype)
        with pytest.raises(DataflowError, match="input batch rejected"):
            runner.executor("resnet18").run_batch(images)
        with pytest.raises(DataflowError, match="input batch rejected"):
            runner.run("resnet18", images)
        with pytest.raises(PrecisionError, match="integer array"):
            runner.run_per_image("resnet18", images)

    def test_single_image_is_promoted_to_batch(self, config):
        runner = make_runner(config, "tempus")
        image = runner.synthesize_batch("resnet18", 1)[0]
        result = runner.run("resnet18", image)
        assert result.batch_size == 1
        assert result.output.ndim == 4

    def test_stage_cycles_sum_to_total_on_both_paths(self, config):
        """Stage records carry batch-total cycles on both paths."""
        runner = make_runner(config, "tempus")
        batched = runner.run("resnet18", 3)
        reference = runner.run_per_image("resnet18", 3)
        assert (
            sum(s.conv_cycles for s in batched.stages)
            == batched.conv_cycles
        )
        assert (
            sum(s.conv_cycles for s in reference.stages)
            == reference.conv_cycles
        )

    def test_result_metrics(self, config):
        result = make_runner(config, "tempus").run("resnet18", 4)
        assert result.cycles_per_image * 4 == result.conv_cycles
        assert result.images_per_million_cycles == pytest.approx(
            4e6 / result.conv_cycles
        )
        assert result.macs == 4 * sum(
            stage.layer.macs
            for stage in make_runner(config, "tempus")
            .compile("resnet18")
            .stages
        )
        kinds = {record.kind for record in result.stages}
        assert kinds == {"conv", "pool"}
