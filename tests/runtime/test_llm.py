"""Op-graph IR + autoregressive decode tests.

Covers the transformer-block lowering end-to-end: the ``LinearSpec``
conv surface (R = S = 1 atoms, token axis as spatial height), residual
and norm glue folding, the value-aware cycle parity with the
standalone :class:`~repro.gemm.llm.TubMatVec` GEMV engine, cycle
accounting without burst-map lookups under a growing-sequence decode,
decode-row reuse (each step runs only its new rows, yet equals a full
recompute), and a PYTEST_SEED-driven differential sweep
asserting batched/per-image bit-identity over random transformer-block
configurations.
"""

import numpy as np
import pytest

from repro.core import latency, scheduling
from repro.errors import DataflowError
from repro.gemm.llm import project_linear_stage
from repro.models.layers import (
    RESIDUAL_INPUT,
    ConvLayerSpec,
    LinearSpec,
    NormSpec,
    ResidualAddSpec,
)
from repro.models.zoo import MODEL_NAMES, build_model
from repro.nvdla.config import CoreConfig
from repro.quant.profile import PROFILES
from repro.runtime import BatchExecutor, NetworkRunner, backends
from repro.runtime.backends import ComputeBackend, get_backend
from repro.runtime.executor import _Step
from tests.oracles import stage_step

BACKENDS = ("binary", "tempus", "tugemm", "tubgemm")
PRECISIONS = ("int8", "int4", "int2")
#: Small-but-structured preset for decode tests.
TINY = dict(scale=0.0625, input_size=8)


def _runner(engine="tempus", precision="int8", **overrides):
    kwargs = dict(TINY)
    kwargs.update(overrides)
    return NetworkRunner(
        CoreConfig(k=4, n=4),
        engine=engine,
        precision=precision,
        **kwargs,
    )


def _decode_stream(net, rng, tokens):
    return np.asarray(
        net.precision.random_array(
            rng, (1, net.input_shape[0], tokens, 1)
        ),
        dtype=np.int64,
    )


# ---------------------------------------------------------------------
# IR surface
# ---------------------------------------------------------------------
def test_linear_spec_is_conv_atom_compatible():
    spec = LinearSpec("proj", in_features=24, out_features=16, tokens=8)
    assert spec.weight_shape == (16, 24, 1, 1)
    assert spec.weight_count == 16 * 24
    assert (spec.kernel_h, spec.kernel_w) == (1, 1)
    assert spec.groups == 1 and spec.stride == 1
    assert (spec.in_height, spec.in_width) == (8, 1)
    assert (spec.out_height, spec.out_width) == (8, 1)
    assert spec.macs == 8 * 16 * 24
    assert spec.fan_in == 24
    grown = spec.with_tokens(20)
    assert grown.tokens == 20 and grown.in_features == 24
    shrunk = spec.scaled(0.5)
    assert shrunk.in_features == 12 and shrunk.out_features == 8
    assert shrunk.tokens == 8  # scale moves widths, not the sequence


def test_glue_specs_are_weightless():
    residual = ResidualAddSpec("res", source=RESIDUAL_INPUT)
    norm = NormSpec("norm")
    for glue in (residual, norm):
        assert not glue.is_weighted
        assert glue.weight_count == 0 and glue.macs == 0
        assert glue.scaled(0.5) is glue
    assert NormSpec.requant_shift(256) == 1
    assert NormSpec.requant_shift(1) == 0


def test_tiny_llm_builds_a_transformer_block():
    model = build_model("tiny_llm", scale=0.25)
    weighted = [op for op in model.layers if op.is_weighted]
    assert len(weighted) == 6  # q/k/v/o + mlp up/down
    assert all(isinstance(op, LinearSpec) for op in weighted)
    assert not any(
        isinstance(op, ConvLayerSpec) for op in model.layers
    )
    residuals = [
        op for op in model.layers if isinstance(op, ResidualAddSpec)
    ]
    assert [op.source for op in residuals] == [
        RESIDUAL_INPUT,
        "tiny_llm.attn.o",
    ]
    assert sum(
        1 for op in model.layers if isinstance(op, NormSpec)
    ) == 2
    up = next(op for op in weighted if op.name.endswith("mlp.up"))
    down = next(
        op for op in weighted if op.name.endswith("mlp.down")
    )
    assert up.out_features == down.in_features
    assert up.in_features == down.out_features


def test_lowering_folds_glue_into_stage_plans():
    runner = _runner()
    net = runner.compile("tiny_llm")
    assert len(net.stages) == 6  # glue folds away, weighted ops remain
    assert net.dynamic_tokens and net.needs_input_saved
    by_name = {stage.name.split(".", 1)[1]: stage for stage in net.stages}
    assert all(stage.dynamic_hw for stage in net.stages)
    # attn residual reads the model input, mlp residual reads attn.o.
    assert by_name["attn.o"].residual_from == -1
    assert by_name["mlp.down"].residual_from == 3
    assert by_name["attn.o"].save_output  # mlp residual source
    assert by_name["attn.q"].residual_from is None


def test_folded_norm_adds_its_shift_to_the_preceding_stage():
    """Each norm widens the requant shift of the stage before it by
    exactly its own shift, against the same model lowered without the
    norms (comparing two different stages would measure their seeded
    weights, not the fold)."""
    import dataclasses

    from repro.models.weights import load_quantized_model
    from repro.runtime.lowering import lower_model

    quantized = load_quantized_model("tiny_llm", scale=TINY["scale"])
    without_norms = dataclasses.replace(
        quantized,
        layers=tuple(
            q for q in quantized.layers
            if not isinstance(q.layer, NormSpec)
        ),
    )
    config = CoreConfig(k=4, n=4)
    folded, plain = (
        {
            stage.name.split(".", 1)[1]: stage
            for stage in lower_model(
                model, config, input_size=TINY["input_size"]
            ).stages
        }
        for model in (quantized, without_norms)
    )
    for name in ("attn.o", "mlp.down"):  # the stages norms follow
        extra = NormSpec.requant_shift(folded[name].layer.fan_in)
        assert extra >= 1, name
        assert folded[name].sdp.shift == plain[name].sdp.shift + extra
    for name in ("attn.q", "attn.k", "attn.v", "mlp.up"):
        assert folded[name].sdp.shift == plain[name].sdp.shift, name


def test_lowering_rejects_unknown_residual_source():
    from repro.models.weights import load_quantized_model
    from repro.runtime.lowering import lower_model

    quantized = load_quantized_model("tiny_llm", scale=0.0625)
    bad = tuple(
        q
        if not isinstance(q.layer, ResidualAddSpec)
        else type(q)(
            layer=ResidualAddSpec(q.layer.name, source="nope"),
            codes=q.codes,
            scale=q.scale,
            precision=q.precision,
        )
        for q in quantized.layers
    )
    import dataclasses

    broken = dataclasses.replace(quantized, layers=bad)
    with pytest.raises(DataflowError, match="nope"):
        lower_model(broken, CoreConfig(k=4, n=4), input_size=8)


# ---------------------------------------------------------------------
# Satellite 1: TubMatVec parity with the executor's accounting
# ---------------------------------------------------------------------
@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("engine", BACKENDS)
def test_linear_stage_matches_tubmatvec(engine, precision):
    """Every R=S=1 projection accounted by the executor must equal the
    standalone GEMV engine's tempus/binary cycle model scaled by the
    token axis (plus the backend's fixed pipeline terms), and the
    engine's output must be the executor's psums for the same token."""
    runner = _runner(engine=engine, precision=precision)
    net = runner.compile("tiny_llm")
    executor = BatchExecutor(net)
    backend = get_backend(engine)
    cycle_code = getattr(backend, "cycle_code", None)
    tokens = 5
    for index, stage in enumerate(net.stages):
        got = backend.layer_cycles(
            stage, stage.scheduled_weights(), net.code, out_pixels=tokens
        )
        engine_result = project_linear_stage(
            stage,
            code=cycle_code(stage.config) if cycle_code else net.code,
        )
        latency = stage.config.pipeline_latency
        expected = {
            "binary": engine_result.binary_cycles * tokens + latency,
            "tempus": engine_result.tempus_cycles * tokens + latency + 1,
            "tugemm": engine_result.tempus_cycles * tokens,
            "tubgemm": engine_result.tempus_cycles * tokens,
        }[engine]
        assert got == expected, stage.name
        # The engine's exact output is the stage's pre-SDP psums, in
        # natural kernel order: the same integers the executor
        # convolves.
        channels = stage.weights.shape[2]
        activations = np.arange(channels, dtype=np.int64) % 3 - 1
        result = project_linear_stage(stage, activations=activations)
        batch = activations[None, :, None, None]
        psums = stage_step(executor, index, batch.shape).run(batch)
        assert np.array_equal(result.output, psums[0, 0, 0]), stage.name


def test_project_linear_stage_rejects_conv_stages():
    runner = _runner()
    net = runner.compile("mobilenet_v2")
    with pytest.raises(DataflowError, match="LinearSpec"):
        project_linear_stage(net.stages[0])


# ---------------------------------------------------------------------
# Cycle accounting without burst maps on the run path
# ---------------------------------------------------------------------
def test_runs_make_no_burst_map_lookups(rng, monkeypatch):
    """Once an executor is built, its stage cycle lines are fixed: a
    64-token decode, a CNN batch and a worker job compute no burst map
    and never call the backends' per-layer cycle model, yet reproduce
    the outputs and cycles of the same runs made before."""
    llm = _runner(precision="int4")
    net = llm.compile("tiny_llm")
    llm.executor("tiny_llm")
    cnn = _runner()
    images = cnn.synthesize_batch("resnet18", 2)
    executor = cnn.executor("resnet18")
    stream = _decode_stream(net, rng, 64)

    def runs():
        decode = [
            llm.run("tiny_llm", stream[:, :, :step, :])
            for step in range(1, 65)
        ]
        return decode, executor.run_batch(images), executor.run_job(images)

    expected_decode, expected_batch, expected_job = runs()

    def refuse(*args, **kwargs):
        raise AssertionError("burst map or cycle model used on a run")

    monkeypatch.setattr(ComputeBackend, "layer_cycles", refuse)
    monkeypatch.setattr(ComputeBackend, "conv_cycles", refuse)
    for module in (latency, backends, scheduling):
        monkeypatch.setattr(module, "cached_burst_cycle_map", refuse)
    monkeypatch.setattr(latency, "burst_cycle_map", refuse)
    monkeypatch.setattr(latency, "tile_max_magnitudes", refuse)

    decode, batch, job = runs()
    for result, expected in zip(decode, expected_decode):
        assert np.array_equal(result.output, expected.output)
        assert result.conv_cycles == expected.conv_cycles
        assert result.stages == expected.stages
    assert np.array_equal(batch[0], expected_batch[0])
    assert batch[1:] == expected_batch[1:]
    assert np.array_equal(job["output"], expected_job["output"])
    assert job["conv_cycles"] == expected_job["conv_cycles"]
    assert job["stage_cycles"] == expected_job["stage_cycles"]


def test_decode_cycles_follow_the_prefix_length(rng):
    """Same stage at two prefix lengths accounts different cycles —
    the stage's cycle line is evaluated at the actual output-pixel
    count, also when a shorter prefix is revisited after growing."""
    runner = _runner()
    net = runner.compile("tiny_llm")
    executor = runner.executor("tiny_llm")
    stream = _decode_stream(net, rng, 6)
    for step in (3, 6, 3):  # revisit a shorter prefix after growing
        prefix = stream[:, :, :step, :]
        job = executor.run_job(prefix)
        reference = runner.run_per_image("tiny_llm", prefix)
        assert job["conv_cycles"] == reference.conv_cycles
        assert job["stage_cycles"] == tuple(
            record.conv_cycles for record in reference.stages
        )


# ---------------------------------------------------------------------
# Decode reuse: each decoded token is computed once
# ---------------------------------------------------------------------
def _psum_rows(executor, monkeypatch):
    """A list that records the token rows every stage's conv
    (``_Step.conv_fused``: psums and epilogue) of ``executor`` is
    given, one entry per stage per run."""
    rows = []
    conv = _Step.conv_fused

    def counted(step, batch, residual=None):
        if any(step is own for own in executor._plan):
            rows.append(batch.shape[2])
        return conv(step, batch, residual)

    monkeypatch.setattr(_Step, "conv_fused", counted)
    return rows


def _assert_full_run_equal(net, batch, result, context=""):
    """``result`` of ``run_batch`` equals a fresh executor's full run
    of ``batch``: output, stage records and total cycles."""
    output, stages, cycles = BatchExecutor(net).run_batch(batch)
    assert np.array_equal(result[0], output), context
    assert result[1] == stages, context
    assert result[2] == cycles, context


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("engine", BACKENDS)
def test_decode_reuses_rows_and_equals_a_full_run(
    engine, precision, fuzz_rng, monkeypatch
):
    """A 64-token decode through one executor computes one new row per
    stage per step, yet every step's output, cycles and stage records
    equal a fresh executor's full run, and the per-image run through
    the real cores at 1/16/32/64 tokens."""
    runner = _runner(engine=engine, precision=precision)
    net = runner.compile("tiny_llm")
    executor = BatchExecutor(net)
    rows = _psum_rows(executor, monkeypatch)
    stream = _decode_stream(net, fuzz_rng, 64)
    for step in range(1, 65):
        prefix = stream[:, :, :step, :]
        context = f"engine={engine} precision={precision} step={step}"
        rows.clear()
        result = executor.run_batch(prefix)
        assert rows == [1] * len(net.stages), context
        _assert_full_run_equal(net, prefix, result, context)
        if step in (1, 16, 32, 64):
            reference = runner.run_per_image("tiny_llm", prefix)
            assert np.array_equal(result[0], reference.output), context
            assert result[2] == reference.conv_cycles, context
            assert tuple(
                record.conv_cycles for record in result[1]
            ) == tuple(
                record.conv_cycles for record in reference.stages
            ), context
    # Non-vacuous: the decoded rows are live.
    assert np.count_nonzero(result[0]) > result[0].size // 4


def test_decode_reuse_falls_back_to_a_full_run(rng, monkeypatch):
    """Only a batch that strictly extends the last one reuses rows: a
    shorter or equal-length batch, a repeated identical call, an
    earlier row edited in place in the caller's stream and a different
    batch size all run every row; every result equals a full run."""
    runner = _runner(precision="int4")
    net = runner.compile("tiny_llm")
    executor = BatchExecutor(net)
    rows = _psum_rows(executor, monkeypatch)
    stream = _decode_stream(net, rng, 10)
    other = _decode_stream(net, rng, 10)
    assert not np.array_equal(stream, other)

    def rows_run(batch):
        rows.clear()
        result = executor.run_batch(batch)
        _assert_full_run_equal(net, batch, result, batch.shape)
        return set(rows)

    assert rows_run(stream[:, :, :4]) == {4}
    assert rows_run(stream[:, :, :6]) == {2}  # extends: new rows only
    assert rows_run(stream[:, :, :6]) == {6}  # repeated identical call
    assert rows_run(stream[:, :, :3]) == {3}  # shorter
    assert rows_run(other[:, :, :3]) == {3}  # equal length, new rows

    def edit(row):
        """Edit an earlier row in place in the caller's stream."""
        value = other[0, 0, row, 0]
        other[0, 0, row, 0] = (
            net.precision.min_value
            if value == net.precision.max_value
            else value + 1
        )

    edit(1)  # after a full run
    assert rows_run(other[:, :, :5]) == {5}
    assert rows_run(other[:, :, :6]) == {1}
    edit(2)  # after a run that reused rows
    assert rows_run(other[:, :, :7]) == {7}
    assert rows_run(other[:, :, :8]) == {1}
    # A different batch size with the same earlier rows.
    pair = np.concatenate((other, stream))
    assert rows_run(pair[:, :, :9]) == {9}
    assert rows_run(other[:, :, :9]) == {9}


def test_decode_output_is_the_callers_own(rng, monkeypatch):
    """Mutating a returned output does not change the next step."""
    runner = _runner(precision="int8")
    net = runner.compile("tiny_llm")
    executor = BatchExecutor(net)
    rows = _psum_rows(executor, monkeypatch)
    stream = _decode_stream(net, rng, 6)
    for step in range(1, 7):
        rows.clear()
        output, _, _ = executor.run_batch(stream[:, :, :step])
        assert set(rows) == {1}
        expected, _, _ = BatchExecutor(net).run_batch(
            stream[:, :, :step]
        )
        assert np.array_equal(output, expected), step
        output[...] = net.stages[-1].sdp.out_precision.max_value


def test_decode_out_of_range_row_is_rejected_then_recomputed(
    rng, monkeypatch
):
    """A new row outside the input precision raises
    :class:`DataflowError` (its earlier rows were checked before), an
    out-of-range earlier row too, and the call after a rejected one
    runs every row."""
    runner = _runner(precision="int4")
    net = runner.compile("tiny_llm")
    executor = BatchExecutor(net)
    rows = _psum_rows(executor, monkeypatch)
    stream = _decode_stream(net, rng, 6)
    executor.run_batch(stream[:, :, :4])
    for row in (4, 1):
        bad = stream[:, :, :5].copy()
        bad[0, 0, row, 0] = net.precision.max_value + 1
        with pytest.raises(DataflowError, match="input batch rejected"):
            executor.run_batch(bad)
        rows.clear()
        result = executor.run_batch(stream[:, :, :5])
        assert set(rows) == {5}, row
        _assert_full_run_equal(net, stream[:, :, :5], result)


def _counted_plan_builds(executor, monkeypatch):
    """A list that records the input shape of every plan the executor
    builds."""
    built = []
    build = executor._build_plan

    def counted(shape):
        built.append(shape)
        return build(shape)

    monkeypatch.setattr(executor, "_build_plan", counted)
    return built


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("engine", BACKENDS)
def test_decode_replays_one_plan(engine, precision, fuzz_rng, monkeypatch):
    """Every decode step computes the same one-row (1, C, 1, 1) shape,
    so one plan serves a 64-step decode and a restart on a new stream;
    an edited prefix runs in full on a plan of its own, and the decode
    then continues on one-row steps again.  Every step equals a fresh executor's
    full run, and the per-image run at the restart's last step."""
    runner = _runner(engine=engine, precision=precision)
    net = runner.compile("tiny_llm")
    executor = BatchExecutor(net)
    built = _counted_plan_builds(executor, monkeypatch)
    stream = _decode_stream(net, fuzz_rng, 64)
    restart = _decode_stream(net, fuzz_rng, 64)
    row = (1, net.input_shape[0], 1, 1)
    for source in (stream, restart):
        for step in range(1, 65):
            prefix = source[:, :, :step, :]
            result = executor.run_batch(prefix)
            _assert_full_run_equal(
                net, prefix, result,
                f"engine={engine} precision={precision} step={step}",
            )
    assert built == [row]
    reference = runner.run_per_image("tiny_llm", restart)
    assert np.array_equal(result[0], reference.output)
    assert result[2] == reference.conv_cycles
    edited = restart.copy()
    value = edited[0, 0, 10, 0]
    edited[0, 0, 10, 0] = (
        net.precision.min_value
        if value == net.precision.max_value
        else value + 1
    )
    for step in range(40, 44):
        prefix = edited[:, :, :step, :]
        result = executor.run_batch(prefix)
        _assert_full_run_equal(net, prefix, result, f"edited step={step}")
    # The 40-row full run replaces the kept one-row plan, which is
    # rebuilt once, then replayed.
    assert built == [row, (1, net.input_shape[0], 40, 1), row]
    assert executor._plan_shape == row
    # Non-vacuous: the decoded rows are live.
    assert np.count_nonzero(result[0]) > result[0].size // 4


def test_mismatched_residual_is_refused_when_planned(rng):
    """A folded residual whose source shape differs from its stage's
    output is refused, naming the stage, when the batch's plan is
    built; the failed batch keeps no plan and leaves no rows to
    reuse."""
    import dataclasses

    runner = _runner(precision="int4")
    net = runner.compile("tiny_llm")
    last = len(net.stages) - 1
    wide = next(
        index for index, stage in enumerate(net.stages)
        if stage.layer.out_channels != net.stages[last].layer.out_channels
    )
    broken = dataclasses.replace(net, stages=net.stages[:last] + (
        dataclasses.replace(net.stages[last], residual_from=wide),
    ))
    executor = BatchExecutor(broken)
    stream = _decode_stream(net, rng, 4)
    with pytest.raises(DataflowError, match=(
        f"{net.stages[last].name}: folded residual shape"
    )):
        executor.run_batch(stream)
    assert executor._plan == () and executor._last is None


def test_decode_rows_append_in_place(rng):
    """A decode keeps its rows in buffers whose token capacity doubles:
    64 steps allocate 7 (capacity 1, 2, 4, ..., 64), every step appends
    in place, and each returned output is the caller's own copy."""
    runner = _runner(precision="int4")
    net = runner.compile("tiny_llm")
    executor = BatchExecutor(net)
    stream = _decode_stream(net, rng, 64)
    buffers = []
    for step in range(1, 65):
        output, _, _ = executor.run_batch(stream[:, :, :step])
        inputs, outputs, rows = executor._last
        assert rows == step
        assert inputs.dtype == outputs.dtype == np.int64
        assert np.array_equal(inputs[:, :, :rows], stream[:, :, :step])
        assert np.array_equal(outputs[:, :, :rows], output)
        assert not np.may_share_memory(output, outputs)
        if not any(inputs is kept for kept in buffers):
            buffers.append(inputs)
    assert [kept.shape[2] for kept in buffers] == [
        1, 2, 4, 8, 16, 32, 64
    ]


@pytest.mark.parametrize("precision", sorted(PROFILES))
def test_tiny_llm_is_token_independent(precision):
    net = _runner(precision=precision).compile("tiny_llm")
    assert net.token_independent


def test_cnns_are_not_token_independent():
    """The zoo CNNs are not token-independent, and neither is a CNN
    whose stages were all marked dynamic (3x3 kernels and strides mix
    rows) nor tiny_llm with a pool in front of a stage."""
    import dataclasses

    from repro.nvdla.pdp import PdpConfig

    runner = _runner()
    for model in MODEL_NAMES:
        net = runner.compile(model)
        assert not net.token_independent, model
        dynamic = dataclasses.replace(net, stages=tuple(
            dataclasses.replace(stage, dynamic_hw=True)
            for stage in net.stages
        ))
        assert not dynamic.token_independent, model
    llm = runner.compile("tiny_llm")
    pooled = dataclasses.replace(llm, stages=(
        dataclasses.replace(llm.stages[0], pool=PdpConfig("max", 2)),
    ) + llm.stages[1:])
    assert not pooled.token_independent


def test_cnn_executor_keeps_no_batch(rng):
    """After a run, a CNN executor holds no reference to the batch or
    its output, so CNN serving memory cannot grow with the cache."""
    import gc
    import weakref

    runner = _runner()
    executor = runner.executor("resnet18")
    images = runner.synthesize_batch("resnet18", 2)
    output, _, _ = executor.run_batch(images)
    refs = (weakref.ref(images), weakref.ref(output))
    del images, output
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert executor._last is None


@pytest.mark.parametrize("tokens", (1, 16, 64))
def test_macs_count_the_actual_tokens(tokens, rng):
    """A dynamic-token run counts its MACs at the tokens it carries:
    each linear stage's d_out x d_in per token, on both runner paths;
    CNN MACs stay the compiled per-image count."""
    runner = _runner(precision="int4")
    net = runner.compile("tiny_llm")
    per_token = sum(
        stage.layer.out_features * stage.layer.in_features
        for stage in net.stages
    )
    stream = _decode_stream(net, rng, tokens)
    for result in (
        runner.run("tiny_llm", stream),
        runner.run_per_image("tiny_llm", stream),
    ):
        assert result.macs == per_token * tokens
    cnn = runner.run("resnet18", 2)
    assert cnn.macs == 2 * runner.compile("resnet18").macs_per_image


# ---------------------------------------------------------------------
# Satellite 4: randomized differential over transformer-block configs
# ---------------------------------------------------------------------
def test_llm_differential_random_scenarios(fuzz_rng):
    """Seeded random sweep over backend x precision x block scale x
    decode length x batch: the batched executor and the per-image
    path must agree bit-for-bit in outputs, cycle totals and per-stage
    cycles at every prefix."""
    for _ in range(6):
        scenario = {
            "engine": BACKENDS[int(fuzz_rng.integers(len(BACKENDS)))],
            "precision": PRECISIONS[
                int(fuzz_rng.integers(len(PRECISIONS)))
            ],
            "scale": float(fuzz_rng.choice((0.03125, 0.0625, 0.125))),
            "input_size": int(fuzz_rng.integers(2, 12)),
            "batch": int(fuzz_rng.integers(1, 3)),
            "k": int(2 ** fuzz_rng.integers(1, 3)),
        }
        runner = NetworkRunner(
            CoreConfig(k=scenario["k"], n=4),
            engine=scenario["engine"],
            precision=scenario["precision"],
            scale=scenario["scale"],
            input_size=scenario["input_size"],
        )
        net = runner.compile("tiny_llm")
        executor = BatchExecutor(net)
        # Decode past the nominal length too: dynamic stages accept
        # any runtime token count.
        tokens = int(
            fuzz_rng.integers(1, 2 * scenario["input_size"] + 1)
        )
        stream = np.asarray(
            net.precision.random_array(
                fuzz_rng,
                (scenario["batch"], net.input_shape[0], tokens, 1),
            ),
            dtype=np.int64,
        )
        for step in sorted({1, max(1, tokens // 2), tokens}):
            prefix = stream[:, :, :step, :]
            job = executor.run_job(prefix)
            reference = runner.run_per_image("tiny_llm", prefix)
            context = f"scenario={scenario} step={step}"
            assert np.array_equal(
                job["output"], reference.output
            ), f"output mismatch: {context}"
            assert (
                job["conv_cycles"] == reference.conv_cycles
            ), f"cycles mismatch: {context}"
            assert job["stage_cycles"] == tuple(
                record.conv_cycles for record in reference.stages
            ), f"stage cycles mismatch: {context}"


def test_decode_cycles_monotone_in_prefix_length(fuzz_rng):
    """A longer prefix can never cost fewer cycles on any backend —
    every stage's work is linear in the token axis."""
    engine = BACKENDS[int(fuzz_rng.integers(len(BACKENDS)))]
    runner = _runner(engine=engine)
    net = runner.compile("tiny_llm")
    executor = runner.executor("tiny_llm")
    stream = _decode_stream(net, fuzz_rng, 10)
    series = [
        executor.run_job(stream[:, :, :step, :])["conv_cycles"]
        for step in range(1, 11)
    ]
    assert all(
        later > earlier for earlier, later in zip(series, series[1:])
    )


def test_residual_changes_the_output(rng):
    """The folded residual adds are live: zeroing them out of the graph
    must change the network function (guards against silently dropping
    glue during lowering)."""
    runner = _runner()
    net = runner.compile("tiny_llm")
    stream = _decode_stream(net, rng, 4)
    full = runner.executor("tiny_llm").run_job(stream)["output"]
    # Rebuild without residual folding by lowering a model whose
    # residual ops are gone (weighted chain only).
    from repro.models.weights import load_quantized_model
    from repro.runtime.lowering import lower_model

    quantized = load_quantized_model("tiny_llm", scale=TINY["scale"])
    import dataclasses

    weighted_only = dataclasses.replace(
        quantized,
        layers=tuple(
            q for q in quantized.layers if q.layer.is_weighted
        ),
    )
    bare = lower_model(
        weighted_only,
        CoreConfig(k=4, n=4),
        input_size=TINY["input_size"],
    )
    stripped = BatchExecutor(bare).run_job(stream)["output"]
    assert not np.array_equal(full, stripped)
