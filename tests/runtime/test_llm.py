"""Op-graph IR + autoregressive decode tests.

Covers the transformer-block lowering end-to-end: the ``LinearSpec``
conv surface (R = S = 1 atoms, token axis as spatial height), residual
and norm glue folding, the value-aware cycle parity with the
standalone :class:`~repro.gemm.llm.TubMatVec` GEMV engine, the
shape-keyed executor cycle memo / burst-map cache bounds under a
growing-sequence decode, and a PYTEST_SEED-driven differential sweep
asserting batched/per-image bit-identity over random transformer-block
configurations.
"""

import numpy as np
import pytest

from repro.errors import DataflowError
from repro.core.latency import (
    burst_map_cache_stats,
    burst_map_disk_cache_dir,
    configure_burst_map_disk_cache,
)
from repro.gemm.llm import project_linear_stage
from repro.models.layers import (
    RESIDUAL_INPUT,
    ConvLayerSpec,
    LinearSpec,
    NormSpec,
    ResidualAddSpec,
)
from repro.models.zoo import build_model
from repro.nvdla.config import CoreConfig
from repro.runtime import BatchExecutor, NetworkRunner
from repro.runtime.backends import get_backend
from repro.runtime.executor import FUSED_CYCLE_MEMO_SIZE

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
    """An R=S=1 projection accounted by the executor must equal the
    standalone GEMV engine's tempus/binary cycle model scaled by the
    token axis (plus the backend's fixed pipeline terms)."""
    runner = _runner(engine=engine, precision=precision)
    net = runner.compile("tiny_llm")
    stage = net.stages[0]
    backend = get_backend(engine)
    tokens = 5
    got = sum(
        backend.layer_cycles(stage, weights, net.code, out_pixels=tokens)
        for weights in stage.weights
    )
    cycle_code = getattr(backend, "cycle_code", None)
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
    assert got == expected
    # The engine's exact output matches a plain matmul of the stage
    # weights (same integers the executor convolves).
    matrix = np.asarray(stage.weights[0])[:, :, 0, 0]
    activations = np.arange(matrix.shape[1], dtype=np.int64) % 3 - 1
    result = project_linear_stage(stage, activations=activations)
    assert np.array_equal(result.output, matrix @ activations)


def test_project_linear_stage_rejects_conv_stages():
    runner = _runner()
    net = runner.compile("mobilenet_v2")
    with pytest.raises(DataflowError, match="LinearSpec"):
        project_linear_stage(net.stages[0])


# ---------------------------------------------------------------------
# Satellite 2: decode must not churn the caches per token
# ---------------------------------------------------------------------
def test_decode_does_not_grow_caches_per_token(tmp_path, rng):
    """A 64-token decode sweeps 64 distinct spatial shapes through the
    same six weight tensors: the burst-map cache (in-memory and disk)
    must stay at its post-first-token size, and the executor's
    per-stage cycle memo must stay bounded by its LRU capacity."""
    previous = burst_map_disk_cache_dir()
    configure_burst_map_disk_cache(tmp_path)
    try:
        runner = _runner()
        net = runner.compile("tiny_llm")
        executor = runner.executor("tiny_llm")
        tokens = 64
        stream = _decode_stream(net, rng, tokens)
        executor.run_job(stream[:, :, :1, :])
        warm = burst_map_cache_stats()
        warm_files = len(list(tmp_path.rglob("*.npy")))
        assert warm_files > 0  # the disk tier actually engaged
        for step in range(2, tokens + 1):
            executor.run_job(stream[:, :, :step, :])
        after = burst_map_cache_stats()
        assert after["entries"] == warm["entries"]
        assert after["misses"] == warm["misses"]
        assert len(list(tmp_path.rglob("*.npy"))) == warm_files
        # 6 stages x 64 prefix lengths = 384 candidate memo keys; the
        # bounded LRU must have evicted down to its capacity.
        assert len(executor._fused_cycles) <= FUSED_CYCLE_MEMO_SIZE
    finally:
        configure_burst_map_disk_cache(previous)


def test_fused_cycle_memo_is_shape_keyed(rng):
    """Same stage at two prefix lengths accounts different cycles —
    the memo must key on the actual output-pixel count."""
    runner = _runner()
    net = runner.compile("tiny_llm")
    executor = runner.executor("tiny_llm")
    stream = _decode_stream(net, rng, 6)
    for step in (3, 6, 3):  # revisit a cached shape after growing
        prefix = stream[:, :, :step, :]
        job = executor.run_job(prefix)
        reference = runner.run_per_image("tiny_llm", prefix)
        assert job["conv_cycles"] == reference.conv_cycles
        assert job["stage_cycles"] == tuple(
            record.conv_cycles for record in reference.stages
        )


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
