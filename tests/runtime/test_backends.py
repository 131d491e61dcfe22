"""Tests for the pluggable compute-backend registry.

The load-bearing guarantees:

* all four registered backends (binary CMAC, Tempus PCU, tuGEMM,
  tubGEMM) produce **bit-identical outputs** at every precision
  profile on the batched, per-image and sharded paths — only cycles
  and energy may differ;
* cycle accounting is **value-aware** for the temporal backends
  (sparser/smaller weights -> fewer cycles) and value-independent for
  binary;
* tubGEMM is strictly cheaper than tuGEMM at equal precision (the
  hybrid-encoding claim), and the gemm-level and runtime-level cycle
  models agree through the shared magnitude->cycles helper — including
  at the INT2 signed edge (-2);
* backend-name validation is centralized: every layer raises the same
  DataflowError listing the registered backends.
"""

import numpy as np
import pytest

from repro.errors import DataflowError
from repro.gemm import BinaryGemm, TubGemm, TuGemm
from repro.nvdla.config import CoreConfig
from repro.nvdla.dataflow import golden_conv2d
from repro.runtime import (
    BackendProfile,
    BatchExecutor,
    NetworkRunner,
    backend_profile,
    check_backend,
    get_backend,
    register_backend,
    registered_backends,
)
from repro.runtime.backends import (
    ComputeBackend,
    ReplayedUnaryCode,
    TempusBackend,
)
from repro.unary.encoding import PureUnaryCode, TwosUnaryCode
from repro.utils.intrange import INT2, INT4, INT8
from repro.utils.rng import make_rng

ALL_BACKENDS = ("binary", "tempus", "tugemm", "tubgemm")
TINY = dict(scale=0.06, input_size=16)


@pytest.fixture(scope="module")
def config():
    return CoreConfig(k=4, n=4)


class TestRegistry:
    def test_builtins_registered(self):
        names = registered_backends()
        for name in ALL_BACKENDS:
            assert name in names

    def test_check_backend_normalizes(self):
        assert check_backend("TEMPUS") == "tempus"
        assert check_backend(" tubgemm ") == "tubgemm"
        assert check_backend(get_backend("binary")) == "binary"

    def test_unknown_backend_lists_registered(self):
        with pytest.raises(DataflowError) as excinfo:
            check_backend("systolic")
        message = str(excinfo.value)
        for name in ALL_BACKENDS:
            assert name in message

    def test_non_string_rejected_uniformly(self):
        with pytest.raises(DataflowError):
            check_backend(42)

    def test_every_layer_raises_the_same_error(self, config):
        """Runner, executor, sharded serving and the benchmarks all
        funnel through check_backend — one message everywhere."""
        from dataclasses import replace

        from repro.runtime.bench import run_backend_benchmark
        from repro.serve import ShardedRunner
        from repro.tune.spec import BACKENDS_SWEEP

        probes = (
            lambda: NetworkRunner(config, engine="nope"),
            lambda: ShardedRunner(workers=1, config=config, engine="nope"),
            lambda: run_backend_benchmark(
                replace(BACKENDS_SWEEP, backends=("nope",)), out_dir=None
            ),
            lambda: backend_profile("nope"),
        )
        messages = set()
        for probe in probes:
            with pytest.raises(DataflowError) as excinfo:
                probe()
            assert "registered backends" in str(excinfo.value)
            messages.add(str(excinfo.value))
        assert len(messages) == 1

    def test_duplicate_registration_rejected(self):
        with pytest.raises(DataflowError):
            register_backend(TempusBackend())

    def test_custom_backend_plugs_into_the_runtime(self, config):
        """register_backend() is all a new design needs: the runner,
        executor and result plumbing pick it up without changes."""

        class DoubledTempus(TempusBackend):
            name = "tempus2x"
            description = "tempus with a doubled clock divider (test)"

            def cycle_line(self, weights, cfg, code):
                per_pixel, fixed = super().cycle_line(weights, cfg, code)
                return 2 * per_pixel, 2 * fixed

        register_backend(DoubledTempus(), replace=True)
        try:
            custom = NetworkRunner(config, engine="tempus2x", **TINY)
            stock = NetworkRunner(config, engine="tempus", **TINY)
            custom_result = custom.run("resnet18", 2)
            stock_result = stock.run("resnet18", 2)
            assert np.array_equal(
                custom_result.output, stock_result.output
            )
            assert custom_result.engine == "tempus2x"
            assert custom_result.conv_cycles == pytest.approx(
                2 * stock_result.conv_cycles, abs=0
            )
        finally:
            from repro.runtime import backends as registry_module

            registry_module._REGISTRY.pop("tempus2x", None)

    def test_invalid_registrations_rejected(self):
        class Nameless(TempusBackend):
            name = "  "

        with pytest.raises(DataflowError):
            register_backend(Nameless())

        class BadArray(TempusBackend):
            name = "badarray"
            array = "photonic"

        with pytest.raises(DataflowError):
            register_backend(BadArray())

        class SlashName(TempusBackend):
            name = "tub/v2"  # '/' is the mixed-profile delimiter

        with pytest.raises(DataflowError):
            register_backend(SlashName())


class TestBackendProfile:
    def test_uniform_describe_roundtrip(self):
        profile = backend_profile("tubgemm")
        assert profile.is_uniform
        assert profile.describe() == "tubgemm"
        assert profile.layer_backends(3) == ("tubgemm",) * 3

    def test_mixed_spec_parsing(self):
        profile = backend_profile("binary/tubgemm/binary")
        assert not profile.is_uniform
        assert profile.layer_backends(4) == (
            "binary",
            "tubgemm",
            "tubgemm",
            "binary",
        )
        assert profile.describe() == "binary/tubgemm/binary"

    def test_single_layer_last_override_wins(self):
        profile = BackendProfile(
            "edge", "tugemm", first="tempus", last="binary"
        )
        assert profile.spec_for(0, 1) == "binary"

    def test_redundant_overrides_normalize_to_uniform(self):
        profile = BackendProfile(
            "plain", "tempus", first="tempus", last="TEMPUS"
        )
        assert profile.is_uniform

    def test_malformed_specs_rejected(self):
        for spec in ("a/b", "binary//binary", "binary/x/binary"):
            with pytest.raises(DataflowError):
                backend_profile(spec)
        with pytest.raises(DataflowError):
            backend_profile("binary").spec_for(3, 3)


class TestBitIdentityAcrossBackends:
    @pytest.mark.parametrize("precision", ["int8", "int4", "int2", "mixed"])
    @pytest.mark.parametrize("model", ["mobilenet_v2", "shufflenet_v2"])
    def test_all_backends_agree_batched_and_per_image(
        self, config, model, precision
    ):
        """The acceptance claim: four backends, every precision, both
        execution paths — identical outputs, per-backend-consistent
        cycles."""
        results = {}
        for name in ALL_BACKENDS:
            runner = NetworkRunner(
                config, engine=name, precision=precision, **TINY
            )
            batched = runner.run(model, 3)
            reference = runner.run_per_image(model, 3)
            context = f"{name} @ {precision}"
            assert np.array_equal(
                batched.output, reference.output
            ), context
            assert batched.conv_cycles == reference.conv_cycles, context
            results[name] = batched
        outputs = [result.output for result in results.values()]
        for other in outputs[1:]:
            assert np.array_equal(outputs[0], other)
        # Cycle ordering: tubgemm strictly below tugemm (hybrid
        # encoding), binary's cost value-independent and (with the
        # default overhead-free config) never above tempus's.
        assert (
            results["tubgemm"].conv_cycles
            < results["tugemm"].conv_cycles
        )
        assert (
            results["tubgemm"].conv_cycles
            <= results["tempus"].conv_cycles
        )

    def test_mixed_backend_profile_three_ways(self, config):
        """Per-stage backend mixing (binary edges, tubGEMM interior)
        composes with a mixed precision profile and stays
        bit-identical on batched / per-image / sharded paths."""
        from repro.serve import ShardedRunner

        engine = "binary/tubgemm/binary"
        runner = NetworkRunner(
            config, engine=engine, precision="mixed", **TINY
        )
        batched = runner.run("resnet18", 4)
        reference = runner.run_per_image("resnet18", 4)
        with ShardedRunner(
            workers=2,
            config=config,
            engine=engine,
            precision="mixed",
            **TINY,
        ) as server:
            sharded = server.run("resnet18", 4)
        assert np.array_equal(batched.output, reference.output)
        assert np.array_equal(batched.output, sharded.output)
        assert (
            batched.conv_cycles
            == reference.conv_cycles
            == sharded.conv_cycles
        )
        assert batched.engine == engine
        net = runner.compile("resnet18")
        stage_backends = [stage.backend for stage in net.stages]
        assert stage_backends[0] == stage_backends[-1] == "binary"
        assert set(stage_backends[1:-1]) == {"tubgemm"}

    def test_mixed_cycles_between_the_uniform_extremes(self, config):
        uniform = {
            name: NetworkRunner(config, engine=name, **TINY)
            .run("resnet18", 2)
            .conv_cycles
            for name in ("binary", "tubgemm")
        }
        mixed = (
            NetworkRunner(
                config, engine="binary/tubgemm/binary", **TINY
            )
            .run("resnet18", 2)
            .conv_cycles
        )
        low, high = sorted(uniform.values())
        assert low <= mixed <= high


class TestValueAwareCycles:
    def test_sparser_weights_cost_fewer_temporal_cycles(self, config):
        """The tubGEMM papers' "sparsity-effective" claim: zero /
        small-magnitude weights shorten temporal bursts; the binary
        CMAC's cost does not move."""
        rng = make_rng("test", "backends", "sparsity")
        dense = INT8.random_array(rng, (8, 8, 3, 3))
        sparse = dense.copy()
        sparse[np.abs(sparse) > 8] = 0
        code = TwosUnaryCode()
        for name in ("tempus", "tubgemm", "tugemm"):
            backend = get_backend(name)
            assert backend.temporal
            dense_cycles = backend.conv_cycles(dense, 10, config, code)
            sparse_cycles = backend.conv_cycles(sparse, 10, config, code)
            assert sparse_cycles < dense_cycles, name
        binary = get_backend("binary")
        assert not binary.temporal
        assert binary.conv_cycles(
            dense, 10, config, code
        ) == binary.conv_cycles(sparse, 10, config, code)

    def test_all_zero_weights_hit_the_floor(self, config):
        """Even all-zero tiles hold the lockstep array for one step
        (the shared step floor), so cycles never reach zero."""
        zeros = np.zeros((4, 4, 1, 1), dtype=np.int64)
        code = TwosUnaryCode()
        for name in ("tempus", "tubgemm", "tugemm"):
            assert get_backend(name).conv_cycles(
                zeros, 1, config, code
            ) >= 1

    @pytest.mark.parametrize("spec", [INT2, INT4, INT8], ids=lambda s: s.name)
    def test_signed_edge_agrees_with_gemm_worst_case(self, config, spec):
        """The INT2 edge regression: -2^(w-1) carries the format's
        largest magnitude, and the runtime's tile accounting must
        charge exactly the gemm engines' worst-case step for it —
        one shared magnitude->cycles helper, no drift."""
        stage_config = config.with_precision(spec)
        edge = np.full(
            (config.k, config.n, 1, 1), spec.min_value, dtype=np.int64
        )
        tiles = 1  # one k x n tile, one window position
        code = TwosUnaryCode()

        tub_runtime = get_backend("tubgemm").conv_cycles(
            edge, 1, stage_config, code
        )
        assert tub_runtime == tiles * TubGemm(spec).worst_case_cycles(1)
        assert tub_runtime == spec.worst_case_tub_cycles
        assert tub_runtime == code.step_cycles(spec.max_magnitude)

        tu_runtime = get_backend("tugemm").conv_cycles(
            edge, 1, stage_config, code
        )
        assert tu_runtime == tiles * TuGemm(spec).worst_case_cycles(1)
        assert tu_runtime == spec.max_magnitude * spec.max_magnitude

        binary_runtime = get_backend("binary").conv_cycles(
            edge, 1, stage_config, code
        )
        assert binary_runtime == 1 + stage_config.pipeline_latency
        assert BinaryGemm(spec).worst_case_cycles(1) == 1 + 1

    def test_replayed_code_latency_model(self):
        code = ReplayedUnaryCode(4)
        assert code.cycles_for_magnitude(3) == 12
        assert code.step_cycles(0) == 1
        assert list(code.cycles_array(np.array([0, 1, 2]))) == [0, 4, 8]
        with pytest.raises(DataflowError):
            ReplayedUnaryCode(0)


class TestGemmReferencePath:
    def test_gemm_core_matches_golden_conv(self, config):
        """The im2col adapter drives the real GemmEngine and must
        reproduce the golden convolution exactly (stride + padding)."""
        rng = make_rng("test", "backends", "gemmcore")
        for name, stride, padding in (
            ("tugemm", 1, 1),
            ("tubgemm", 2, 0),
            ("tubgemm", 2, 1),
        ):
            activations = INT4.random_array(rng, (3, 9, 9))
            weights = INT4.random_array(rng, (5, 3, 3, 3))
            core = get_backend(name).make_core(
                config.with_precision(INT4), TwosUnaryCode(), "fast"
            )
            result = core.run_layer(
                activations, weights, stride=stride, padding=padding
            )
            expected = golden_conv2d(
                activations, weights, stride, padding
            )
            assert np.array_equal(result.output, expected), (
                name,
                stride,
                padding,
            )
            assert result.cycles >= 1
            assert result.macs == expected.size * 3 * 3 * 3

    def test_gemm_backends_reject_simulation_modes(self, config):
        for name in ("tugemm", "tubgemm"):
            for mode in ("burst", "cycle"):
                with pytest.raises(DataflowError):
                    get_backend(name).make_core(
                        config, TwosUnaryCode(), mode
                    )

    def test_runner_rejects_simulation_mode_for_gemm_backends(
        self, config
    ):
        runner = NetworkRunner(config, engine="tubgemm", **TINY)
        with pytest.raises(DataflowError):
            runner.run_per_image("resnet18", 1, mode="burst")


class TestExecutorResolution:
    def test_executor_uses_lowered_backends_by_default(self, config):
        runner = NetworkRunner(config, engine="tubgemm", **TINY)
        net = runner.compile("resnet18")
        executor = BatchExecutor(net, None)
        assert executor.engine == "tubgemm"
        assert all(
            backend.name == "tubgemm"
            for backend in executor.stage_backends
        )

    def test_executor_engine_override(self, config):
        """An explicit engine re-resolves every stage — the pre-registry
        construction style keeps working."""
        runner = NetworkRunner(config, engine="tempus", **TINY)
        net = runner.compile("resnet18")
        tempus = BatchExecutor(net, "tempus")
        binary = BatchExecutor(net, "binary")
        images = runner.synthesize_batch("resnet18", 2)
        tempus_out, _, tempus_cycles = tempus.run_batch(images)
        binary_out, _, binary_cycles = binary.run_batch(images)
        assert np.array_equal(tempus_out, binary_out)
        assert binary_cycles < tempus_cycles

    def test_stageplan_backend_recorded_at_lowering(self, config):
        runner = NetworkRunner(config, engine="tugemm", **TINY)
        net = runner.compile("mobilenet_v2")
        assert net.backends.describe() == "tugemm"
        assert all(stage.backend == "tugemm" for stage in net.stages)

    def test_engine_override_accounts_on_the_override(self, config):
        """A tempus-lowered program run with engine="binary" accounts
        every stage on binary: outputs, total and per-stage cycles
        equal the binary-lowered per-image reference."""
        tempus = NetworkRunner(config, engine="tempus", **TINY)
        binary = NetworkRunner(config, engine="binary", **TINY)
        images = binary.synthesize_batch("resnet18", 2)
        output, records, cycles = BatchExecutor(
            tempus.compile("resnet18"), engine="binary"
        ).run_batch(images)
        reference = binary.run_per_image("resnet18", images)
        assert np.array_equal(output, reference.output)
        assert cycles == reference.conv_cycles
        assert [record.conv_cycles for record in records] == [
            record.conv_cycles for record in reference.stages
        ]

    def test_pre_registry_network_defaults_to_tempus(self, config):
        """A compiled network whose stages carry backend=None (the
        pre-registry default) runs on DEFAULT_BACKEND on both paths."""
        import dataclasses

        runner = NetworkRunner(config, engine="tempus", **TINY)
        net = runner.compile("resnet18")
        legacy = dataclasses.replace(
            net,
            stages=tuple(
                dataclasses.replace(stage, backend=None)
                for stage in net.stages
            ),
            backends=None,
        )
        replay = NetworkRunner(config, engine="tempus", **TINY)
        replay._compiled["resnet18"] = legacy
        batched = replay.run("resnet18", 2)
        reference = replay.run_per_image("resnet18", 2)
        assert np.array_equal(batched.output, reference.output)
        assert batched.conv_cycles == reference.conv_cycles
        assert batched.engine == "tempus"


def test_compute_backend_is_abstract():
    with pytest.raises(TypeError):
        ComputeBackend()


def test_pure_unary_step_floor_matches_tu_engine():
    """The shared helper on the pure-unary side: a zero step still
    costs one cycle, exactly like TuGemm.step_cycles."""
    code = PureUnaryCode()
    engine = TuGemm(INT2)
    zero = np.zeros(2, dtype=np.int64)
    assert code.step_cycles(0) == 1
    assert engine.step_cycles(zero, zero) == 1
