"""Randomized differential tests: batched executor == per-image oracle.

The batched executor (exact float-GEMM conv + in-place SDP over
scratch shared across stages) must be **bit-identical** to the
per-image run through the real cores
(:meth:`~repro.runtime.runner.NetworkRunner.run_per_image`) in outputs
AND cycle accounting (total and per stage), for every backend, every
precision profile, every batch size, with and without scheduling.
End-to-end CNN outputs are often all zero, so the kernel is also
pinned stage by stage on full-range inputs: its pre-SDP psums against
the int64 golden convolution, and its float64 SDP epilogue against
:meth:`~repro.nvdla.sdp.Sdp.apply_many`, on full-range and near-tie
psums and with a folded residual, and every stage's channels-last
seam on full-range inputs at the unfitted shapes a run delivers.  The
output contract (a fresh C-contiguous (B, K, OH, OW) int64 array)
is pinned whatever kernel the last stage runs, and so is the int32
handoff between hidden stages on every zoo model.  Its per-stage float
dtype is pinned against the exactness bound at the float32 / float64
/ no-float edges, the epilogue against its own bound at 2**53, and
its scratch memory against the largest single stage's need.

All randomness flows from the ``fuzz_rng`` fixture, which derives from
the ``PYTEST_SEED`` environment variable; a failure report prints the
seed, so any counterexample replays exactly.
"""

import collections
import dataclasses
import math

import numpy as np
import pytest

from repro.errors import DataflowError
from repro.models.zoo import MODEL_NAMES
from repro.nvdla.config import CoreConfig
from repro.nvdla.sdp import Sdp
from repro.runtime import BatchExecutor, NetworkRunner
from repro.nvdla.pdp import Pdp, PdpConfig
from repro.runtime.executor import _FusedStage, _SdpEpilogue, \
    exact_float_dtype, fit_channels, fit_spatial
from repro.runtime.lowering import identity_orders
from repro.runtime.runner import run_per_image
from repro.serve import ShardedRunner
from repro.utils.intrange import INT2, INT8, int_spec
from tests.oracles import golden_conv2d_batched, recorded_stages, \
    stage_step

#: Structurally dissimilar nets (depthwise-heavy, dense-residual,
#: grouped/shuffled, branchy) — kept tiny via scale/input_size.
FUZZ_MODELS = (
    "mobilenet_v2",
    "resnet18",
    "shufflenet_v2",
    "googlenet",
)
FUZZ_PRECISIONS = ("int8", "int4", "int2", "mixed")
FUZZ_BACKENDS = (
    "tempus",
    "binary",
    "tugemm",
    "tubgemm",
    "binary/tubgemm/binary",
)
TINY = dict(scale=0.06, input_size=16)


def _assert_identical(job, reference, context):
    """A ``run_job`` record against a ``run_per_image`` result."""
    assert np.array_equal(
        job["output"], reference.output
    ), f"output mismatch: {context}"
    assert (
        job["conv_cycles"] == reference.conv_cycles
    ), f"total cycles mismatch: {context}"
    assert job["stage_cycles"] == tuple(
        record.conv_cycles for record in reference.stages
    ), f"per-stage cycles mismatch: {context}"
    # The per-image path records per-image output shapes.
    assert tuple(
        (name, kind, shape[1:]) for name, kind, shape in job["stage_meta"]
    ) == tuple(
        (record.name, record.kind, record.output_shape)
        for record in reference.stages
    ), f"stage metadata mismatch: {context}"


def _run_pair(runner, model, images):
    job = BatchExecutor(runner.compile(model)).run_job(images)
    return job, runner.run_per_image(model, images)


def test_fused_differential_random_scenarios(fuzz_rng):
    """Seeded random sweep over net x backend x precision x batch x
    array geometry: the fused path may not diverge anywhere."""
    for _ in range(6):
        scenario = {
            "model": FUZZ_MODELS[
                int(fuzz_rng.integers(len(FUZZ_MODELS)))
            ],
            "engine": FUZZ_BACKENDS[
                int(fuzz_rng.integers(len(FUZZ_BACKENDS)))
            ],
            "precision": FUZZ_PRECISIONS[
                int(fuzz_rng.integers(len(FUZZ_PRECISIONS)))
            ],
            "batch": int(fuzz_rng.integers(1, 6)),
            "k": int(2 ** fuzz_rng.integers(1, 3)),
            "scheduling": bool(fuzz_rng.integers(2)),
        }
        runner = NetworkRunner(
            CoreConfig(k=scenario["k"], n=4),
            engine=scenario["engine"],
            scheduling=scenario["scheduling"],
            precision=scenario["precision"],
            **TINY,
        )
        net = runner.compile(scenario["model"])
        images = net.precision.random_array(
            fuzz_rng, (scenario["batch"],) + tuple(net.input_shape)
        )
        job, reference = _run_pair(runner, scenario["model"], images)
        _assert_identical(job, reference, f"scenario={scenario}")


@pytest.mark.parametrize("engine", FUZZ_BACKENDS[:4])
@pytest.mark.parametrize("precision", FUZZ_PRECISIONS)
def test_fused_bit_identity_full_matrix(fuzz_rng, engine, precision):
    """The acceptance matrix swept explicitly: all 4 backends x all
    precision profiles, one random net/batch each."""
    runner = NetworkRunner(
        CoreConfig(k=4, n=4),
        engine=engine,
        precision=precision,
        **TINY,
    )
    model = FUZZ_MODELS[int(fuzz_rng.integers(len(FUZZ_MODELS)))]
    net = runner.compile(model)
    batch = int(fuzz_rng.integers(1, 5))
    images = net.precision.random_array(
        fuzz_rng, (batch,) + tuple(net.input_shape)
    )
    job, reference = _run_pair(runner, model, images)
    _assert_identical(
        job, reference, f"model={model} engine={engine} "
        f"precision={precision} batch={batch}"
    )


def test_fused_executor_reuses_scratch_across_batches(fuzz_rng):
    """Repeated jobs through one executor stay correct while the
    scratch buffers are recycled across stages and batches (the pad
    borders must read zero on every pass, whatever another stage left
    there)."""
    runner = NetworkRunner(CoreConfig(k=4, n=4), **TINY)
    net = runner.compile("resnet18")
    executor = BatchExecutor(net)
    for round_index in range(3):
        batch = int(fuzz_rng.integers(1, 5))
        images = net.precision.random_array(
            fuzz_rng, (batch,) + tuple(net.input_shape)
        )
        _assert_identical(
            executor.run_job(images),
            runner.run_per_image("resnet18", images),
            f"round={round_index} batch={batch}",
        )
    # Reuse happened: plans and scratch persisted across jobs.
    assert executor._fused_stages
    assert executor._scratch


def test_fused_output_not_aliased_to_scratch(fuzz_rng):
    """Returned outputs are private copies — a later batch through the
    same executor must not mutate an earlier batch's result."""
    runner = NetworkRunner(CoreConfig(k=4, n=4), **TINY)
    net = runner.compile("mobilenet_v2")
    executor = BatchExecutor(net)
    images = net.precision.random_array(
        fuzz_rng, (2,) + tuple(net.input_shape)
    )
    first = executor.run_job(images)["output"]
    snapshot = first.copy()
    executor.run_job(
        net.precision.random_array(
            fuzz_rng, (2,) + tuple(net.input_shape)
        )
    )
    assert np.array_equal(first, snapshot)


def test_fused_keyword_is_an_accepted_no_op(fuzz_rng):
    """``fused=`` is still accepted by both runners and changes
    nothing: they run the float kernel (one plan per stage) and agree
    with the per-image oracle."""
    runner = NetworkRunner(CoreConfig(k=4, n=4), fused=False, **TINY)
    net = runner.compile("resnet18")
    executor = runner.executor("resnet18")
    assert len(executor._fused_stages) == len(net.stages)
    images = net.precision.random_array(
        fuzz_rng, (2,) + tuple(net.input_shape)
    )
    reference = runner.run_per_image("resnet18", images)
    _assert_identical(executor.run_job(images), reference, "runner")
    with ShardedRunner(
        workers=1, config=CoreConfig(k=4, n=4), fused=False, **TINY
    ) as server:
        served = server.run("resnet18", images)
        fallback = server._runner.executor("resnet18")
    assert len(fallback._fused_stages) == len(net.stages)
    assert np.array_equal(served.output, reference.output)
    assert served.conv_cycles == reference.conv_cycles


def test_fused_matches_int8_spec_bounds(fuzz_rng):
    """The in-place SDP requant clips into the stage output spec
    (spot check on the paper's INT8 profile)."""
    runner = NetworkRunner(CoreConfig(k=4, n=4), **TINY)
    net = runner.compile("googlenet")
    images = net.precision.random_array(
        fuzz_rng, (3,) + tuple(net.input_shape)
    )
    output = BatchExecutor(net).run_job(images)["output"]
    assert output.min() >= INT8.min_value
    assert output.max() <= INT8.max_value


# ---------------------------------------------------------------------
# Stage-level psum identity and the exactness bound.

PSUM_PRECISIONS = ("int8", "int4", "int2")


def _psums(executor, index, batch):
    """Stage ``index``'s pre-SDP psums of ``batch``, run alone on a
    one-stage plan, as (B, K, OH, OW) in the stage's float dtype."""
    step = stage_step(executor, index, batch.shape)
    return step.run(batch).transpose(0, 3, 1, 2)


def _stage_input(rng, stage, batch=2):
    """Full-range random input at the stage's fitted input shape."""
    layer = stage.layer
    return stage.precision.random_array(
        rng, (batch, stage.fit_channels, layer.in_height, layer.in_width)
    )


def _golden_psums(stage, batch):
    """Exact int64 reference psums of an unscheduled stage."""
    layer = stage.layer
    return golden_conv2d_batched(
        batch,
        stage.weights.reshape((-1,) + stage.weights.shape[2:]),
        layer.stride,
        (layer.padding_h, layer.padding_w),
        layer.groups,
    )


@pytest.mark.parametrize("model", FUZZ_MODELS)
def test_fused_psums_match_int64_golden_on_every_stage(fuzz_rng, model):
    """Every stage's float-kernel pre-SDP psums equal the int64 golden conv
    on full-range inputs, scheduled and unscheduled, at every
    precision.  The golden side uses the *unscheduled* lowering's
    weights, so the scheduled run also checks that tile order never
    reaches the psums.  Psums must be mostly nonzero, so the identity
    cannot hold vacuously."""
    live = total = 0
    scheduled_stages = 0
    for precision in PSUM_PRECISIONS:
        logical = NetworkRunner(
            CoreConfig(k=4, n=4),
            precision=precision,
            scheduling=False,
            **TINY,
        ).compile(model)
        for scheduling in (False, True):
            net = NetworkRunner(
                CoreConfig(k=4, n=4),
                precision=precision,
                scheduling=scheduling,
                **TINY,
            ).compile(model)
            executor = BatchExecutor(net)
            assert len(net.stages) == len(logical.stages)
            run_live = run_total = 0
            for index, (stage, reference) in enumerate(
                zip(net.stages, logical.stages)
            ):
                assert stage.name == reference.name
                scheduled_stages += not np.array_equal(
                    stage.scheduled_weights(), stage.weights
                )
                batch = _stage_input(fuzz_rng, stage)
                psums = _psums(executor, index, batch)
                expected = _golden_psums(reference, batch)
                assert psums.dtype == executor._fused_stages[index].dtype
                assert np.array_equal(psums, expected), (
                    f"{stage.name} precision={precision} "
                    f"scheduling={scheduling} "
                    f"kind={executor._fused_stages[index].kind}"
                )
                run_live += np.count_nonzero(expected)
                run_total += expected.size
            # INT2 quantization zeroes many weights; every run must
            # still carry a substantial live fraction.
            assert run_live > 0.25 * run_total, (precision, scheduling)
            live += run_live
            total += run_total
    assert live > 0.5 * total
    assert scheduled_stages > 0  # the scheduled path was exercised


def test_exact_float_dtype_edges():
    """float32 strictly below 2**24, float64 strictly below 2**53,
    and no float dtype from 2**53 on."""
    assert exact_float_dtype(0) == np.float32
    assert exact_float_dtype((1 << 24) - 1) == np.float32
    assert exact_float_dtype(1 << 24) == np.float64
    assert exact_float_dtype((1 << 53) - 1) == np.float64
    with pytest.raises(DataflowError):
        exact_float_dtype(1 << 53)


#: (model, kind): one stage of every fused-kernel kind.
_KIND_STAGES = (
    ("resnet18", "gemm"),
    ("resnet18", "stem"),
    ("mobilenet_v2", "pointwise"),
    ("mobilenet_v2", "depthwise"),
)


def _bound_stage(rng, model, kind, kernel_l1):
    """A one-stage INT2 network whose worst kernel has L1 weight mass
    ``kernel_l1`` (bound = 2 * kernel_l1), built from the first real
    stage of the given kernel kind."""
    net = NetworkRunner(
        CoreConfig(k=4, n=4), precision="int2", **TINY
    ).compile(model)
    probe = BatchExecutor(net)
    index = next(
        position
        for position, plan in enumerate(probe._fused_stages)
        if plan.kind == kind
    )
    stage = net.stages[index]
    assert stage.precision == INT2
    # The first kernel is all negative with L1 mass exactly
    # ``kernel_l1``, so an input pinned at the most negative code
    # drives its psum to the bound; the rest get random weights of up
    # to the same per-tap magnitude.
    fan_in = stage.weights[0, 0].size
    per_tap = kernel_l1 // fan_in
    weights = np.empty(stage.weights.shape, dtype=np.int64)
    for group in weights:
        group[...] = rng.integers(-per_tap, per_tap + 1, size=group.shape)
    first = weights[0, 0]
    first[...] = -per_tap
    first.flat[0] -= kernel_l1 - fan_in * per_tap
    kernel_order, channel_order = identity_orders(weights)
    stage = dataclasses.replace(
        stage,
        weights=weights,
        kernel_order=kernel_order,
        channel_order=channel_order,
        pool=None,
        residual_from=None,
        save_output=False,
    )
    return dataclasses.replace(
        net, stages=(stage,), precision=INT2,
        input_shape=(stage.fit_channels, stage.layer.in_height,
                     stage.layer.in_width),
    )


def _bound_inputs(rng, stage):
    """Full-range random images plus one pinned at the most negative
    code, which drives the first kernel's psum to the bound."""
    batch = _stage_input(rng, stage, batch=3)
    batch[0] = stage.precision.min_value
    return batch


@pytest.mark.parametrize("model,kind", _KIND_STAGES)
@pytest.mark.parametrize(
    "kernel_l1,dtype",
    [
        # bound = 2 * kernel_l1 is even at INT2, so 2**24 - 2 is the
        # largest bound below 2**24 a stage can have.
        ((1 << 23) - 1, np.float32),
        (1 << 23, np.float64),
        # Far past float32: a float32 kernel would round here.
        ((1 << 30) + 1, np.float64),
    ],
)
def test_fused_bound_selects_exact_dtype(
    fuzz_rng, model, kind, kernel_l1, dtype
):
    """The stage's float dtype follows its bound, and psums stay exact
    up to it — with the bound actually reached by one input."""
    net = _bound_stage(fuzz_rng, model, kind, kernel_l1)
    stage = net.stages[0]
    executor = BatchExecutor(net)
    plan = executor._fused_stages[0]
    assert plan.kind == kind
    assert plan.bound == 2 * kernel_l1
    assert plan.dtype == dtype
    batch = _bound_inputs(fuzz_rng, stage)
    expected = _golden_psums(stage, batch)
    assert np.abs(expected).max() == plan.bound
    assert np.array_equal(_psums(executor, 0, batch), expected)
    # The full run (SDP included) agrees with the reference SDP on
    # the golden psums.
    assert np.array_equal(
        executor.run_job(batch)["output"],
        Sdp(stage.sdp).apply_many(expected),
    ), f"{model} {kind} bound={plan.bound}"


def test_fused_bound_past_float64_is_refused(fuzz_rng):
    """A stage whose bound reaches 2**53 cannot run exactly on any
    float dtype: building the executor raises, naming it."""
    net = _bound_stage(fuzz_rng, "resnet18", "gemm", 1 << 52)
    with pytest.raises(DataflowError, match=net.stages[0].name):
        BatchExecutor(net)


@pytest.mark.parametrize("fused", [False, True])
def test_run_batch_rejects_out_of_range_input(fuzz_rng, fused):
    """run_batch checks the network input against its precision once
    per batch — the precondition of the exactness bound — while
    inputs at both range ends run; the same holds for the runner's
    executor under either value of the no-op ``fused=`` keyword."""
    runner = NetworkRunner(CoreConfig(k=4, n=4), fused=fused, **TINY)
    net = runner.compile("mobilenet_v2")
    executor = runner.executor("mobilenet_v2")
    images = net.precision.random_array(
        fuzz_rng, (2,) + tuple(net.input_shape)
    )
    images[0] = net.precision.min_value
    images[1] = net.precision.max_value
    executor.run_batch(images)
    for bad in (net.precision.max_value + 1, net.precision.min_value - 1,
                10**9):
        rejected = images.copy()
        rejected[1, 0, 0, 0] = bad
        with pytest.raises(DataflowError, match="input batch rejected"):
            executor.run_batch(rejected)


# ---------------------------------------------------------------------
# Stage-level SDP epilogue identity and scratch sizing.


def _sdp_variants(rng, config):
    """The stage's own SDP config plus variants covering what the zoo
    lowering never emits (every zoo stage has a bias, a nonzero shift
    and relu or no activation), a negative prelu multiplier
    included."""
    return {
        "stage": config,
        "none": dataclasses.replace(config, activation="none"),
        "no_bias": dataclasses.replace(config, bias=None),
        "shift0": dataclasses.replace(config, multiplier=1, shift=0),
        "prelu": dataclasses.replace(
            config,
            activation="prelu",
            prelu_multiplier=int(rng.integers(1, 64)),
            prelu_shift=int(rng.integers(0, 7)),
        ),
        "prelu_negative": dataclasses.replace(
            config,
            activation="prelu",
            prelu_multiplier=-int(rng.integers(1, 64)),
            prelu_shift=int(rng.integers(1, 7)),
        ),
    }


def _channels_last(array):
    """A (B, K, H, W) array as the (B, H, W, K) view the epilogue
    works on."""
    return np.moveaxis(array, 1, -1)


def _epilogue(stage, config, psums, dtype, residual=None, final=False):
    """The float64 epilogue of ``stage`` under SDP ``config`` over
    integer (B, K, OH, OW) ``psums`` fed channels-last in float
    ``dtype`` (the kernel's dtype where the values fit it), its bound
    taken from the psums given, as the network's ``final`` stage or a
    hidden one; the result is (B, K, OH, OW)."""
    epilogue = _SdpEpilogue(
        dataclasses.replace(stage, sdp=config),
        int(np.abs(psums).max(initial=0)),
    )
    return _run_epilogue(epilogue, psums.astype(dtype), residual, final)


def _run_epilogue(epilogue, psums, residual=None, final=False):
    """``epilogue`` over (B, K, OH, OW) float ``psums`` fed
    channels-last, with its per-kernel constant tiled along the output
    row as a plan tiles it."""
    values = _channels_last(psums)
    if residual is not None:
        residual = _channels_last(residual)
    return epilogue(
        values, np.empty(values.shape), epilogue.rows(values.shape[2]),
        residual, final,
    )


def _reference(config, psums, residual=None):
    """``Sdp.apply_many``, then the folded residual add saturating in
    the output format (as the per-image path does)."""
    expected = Sdp(config).apply_many(psums)
    if residual is None:
        return expected
    spec = config.out_precision
    return np.clip(expected + residual, spec.min_value, spec.max_value)


@pytest.mark.parametrize("model", FUZZ_MODELS)
def test_sdp_fused_matches_sdp_apply_many_on_every_stage(fuzz_rng, model):
    """The executor's float64 SDP epilogue equals ``Sdp.apply_many`` on
    every stage's full-range golden psums, fed in the kernel's own
    float dtype, at INT8/INT4/INT2, for the stage's own config and
    relu/none/prelu, bias/no-bias and shift-0 variants.  Outputs must
    be substantially nonzero in aggregate, so the identity cannot hold
    vacuously."""
    live = total = 0
    seen = collections.Counter()
    for precision in PSUM_PRECISIONS:
        net = NetworkRunner(
            CoreConfig(k=4, n=4),
            precision=precision,
            scheduling=False,
            **TINY,
        ).compile(model)
        executor = BatchExecutor(net)
        for stage, plan in zip(net.stages, executor._fused_stages):
            final = stage is net.stages[-1]
            psums = _golden_psums(stage, _stage_input(fuzz_rng, stage))
            for label, config in _sdp_variants(
                fuzz_rng, stage.sdp
            ).items():
                expected = _reference(config, psums)
                actual = _epilogue(
                    stage, config, psums, plan.dtype, final=final
                )
                assert actual.dtype == (np.int64 if final else np.int32)
                assert np.array_equal(actual, expected), (
                    f"{stage.name} precision={precision} sdp={label}"
                )
                seen[config.activation] += 1
                seen["bias"] += config.bias is not None
                seen["no_bias"] += config.bias is None
                seen["shift0"] += config.shift == 0
                live += np.count_nonzero(expected)
                total += expected.size
            # The executor's own epilogue is the "stage" variant's.
            assert np.array_equal(
                _run_epilogue(plan.epilogue, psums.astype(plan.dtype)),
                Sdp(stage.sdp).apply_many(psums),
            ), f"{stage.name} precision={precision}"
    assert all(
        seen[feature]
        for feature in ("relu", "prelu", "none", "bias", "no_bias",
                        "shift0")
    ), seen
    assert live > 0.25 * total


def _near_tie_values(rng, stage, size):
    """Random ``v = psum + bias`` with ``v*m + 2**(s-1)`` within +-1 of a
    multiple of ``2**s`` — the values whose round-half-away result
    turns on the last bit of the product.  Solves
    ``v*m = d - 2**(s-1) (mod 2**s)`` for d in (-1, 0, 1) and draws
    from the solutions nearest zero, of both signs (a negative
    solution is a near tie of ``|v|`` too).  None when ``m`` is a
    multiple of ``2**s``: then ``v*m/2**s`` is always an integer and
    nothing rounds."""
    multiplier, shift = stage.sdp.multiplier, stage.sdp.shift
    if multiplier % (1 << shift) == 0:
        return None
    twos = min((multiplier & -multiplier).bit_length() - 1, shift)
    modulus = 1 << (shift - twos)
    inverse = pow(multiplier >> twos, -1, modulus)
    solutions = []
    for distance in (-1, 0, 1):
        target = distance - (1 << (shift - 1))
        if target % (1 << twos):
            continue
        residue = (target >> twos) * inverse % modulus
        solutions.extend(
            residue + turn * modulus for turn in range(-3, 3)
        )
    return rng.choice(np.array(solutions, dtype=np.int64), size=size)


@pytest.mark.parametrize("model", FUZZ_MODELS)
def test_sdp_fused_is_exact_on_near_tie_psums(fuzz_rng, model):
    """On near-tie psums (see :func:`_near_tie_values`) the epilogue
    still equals ``Sdp.apply_many``, on every stage at INT8/INT4/INT2,
    for the stage's own SDP and its activation="none" variant, each
    also with a 32-bit output format so saturation cannot hide a
    wrong rounding.  Psums that fit float32 are fed as float32 (every
    stage's kernel dtype here), the rest as float64.  INT2 stages
    whose requant scale is exactly 1 (``m == 2**s``) round nothing and
    have no ties; no other stage may lack them."""
    live = total = float32_cases = 0
    for precision in PSUM_PRECISIONS:
        net = NetworkRunner(
            CoreConfig(k=4, n=4),
            precision=precision,
            scheduling=False,
            **TINY,
        ).compile(model)
        for stage in net.stages:
            assert stage.sdp.shift > 0, stage.name
            layer = stage.layer
            shape = (2, layer.out_channels, layer.out_height,
                     layer.out_width)
            values = _near_tie_values(fuzz_rng, stage, shape)
            if values is None:
                # INT2 requant scales are often exactly 1 (m == 2**s).
                assert precision == "int2", stage.name
                continue
            psums = values - stage.sdp.bias[None, :, None, None]
            # Float32 carries only the psums below 2**24 unrounded.
            small = np.abs(psums) < 1 << 24
            float32_psums = np.where(small, psums, 0)
            float32_cases += int(small.sum())
            own = stage.sdp
            none = dataclasses.replace(own, activation="none")
            for config in (
                own,
                none,
                dataclasses.replace(own, out_precision=int_spec(32)),
                dataclasses.replace(none, out_precision=int_spec(32)),
            ):
                context = (
                    f"{stage.name} precision={precision} "
                    f"activation={config.activation} "
                    f"out={config.out_precision}"
                )
                expected = _reference(config, psums)
                assert np.array_equal(
                    _epilogue(stage, config, psums, np.float64), expected
                ), context
                assert np.array_equal(
                    _epilogue(stage, config, float32_psums, np.float32),
                    _reference(config, float32_psums),
                ), f"{context} float32"
                live += np.count_nonzero(expected)
                total += expected.size
    assert live > 0.25 * total
    assert float32_cases > 0


@pytest.mark.parametrize("precision", PSUM_PRECISIONS)
def test_sdp_fused_adds_the_folded_residual(fuzz_rng, precision):
    """tiny_llm folds both residual adds into stages (one relu, one
    with no activation).  Their epilogue with a full-range residual
    equals ``Sdp.apply_many`` plus the saturating add, on full-range
    and near-tie psums and for every SDP variant; the residual runs
    through a one-stage plan's ``_Step.conv_fused`` too."""
    net = NetworkRunner(
        CoreConfig(k=4, n=4),
        precision=precision,
        scale=0.0625,
        input_size=8,
    ).compile("tiny_llm")
    executor = BatchExecutor(net)
    folded = [
        (index, stage)
        for index, stage in enumerate(net.stages)
        if stage.residual_from is not None
    ]
    assert {stage.sdp.activation for _, stage in folded} == {
        "relu", "none"
    }
    live = total = 0
    for index, stage in folded:
        plan = executor._fused_stages[index]
        batch = _stage_input(fuzz_rng, stage)
        psums = _golden_psums(stage, batch)
        residual = stage.sdp.out_precision.random_array(
            fuzz_rng, psums.shape
        )
        ties = _near_tie_values(fuzz_rng, stage, psums.shape) - \
            stage.sdp.bias[None, :, None, None]
        for label, config in _sdp_variants(fuzz_rng, stage.sdp).items():
            for source in (psums, ties):
                expected = _reference(config, source, residual)
                dtype = plan.dtype if source is psums else np.float64
                actual = _epilogue(stage, config, source, dtype, residual)
                assert np.array_equal(actual, expected), (
                    f"{stage.name} precision={precision} sdp={label}"
                )
                live += np.count_nonzero(expected)
                total += expected.size
        output = stage_step(executor, index, batch.shape).conv_fused(
            batch, residual
        )
        assert np.array_equal(
            output, _reference(stage.sdp, psums, residual)
        ), stage.name
    assert live > 0.25 * total


def _commuting_variants(rng, config):
    """SDP variants the executor may pool the psums of: relu, none and
    prelu with a multiplier >= 0 (zero included), each with the
    stage's own requantization and with a zero shift."""
    variants = {}
    for activation in ("relu", "none", "prelu"):
        own = dataclasses.replace(
            config,
            activation=activation,
            prelu_multiplier=int(rng.integers(0, 64)),
            prelu_shift=int(rng.integers(0, 7)),
        )
        variants[activation] = own
        variants[f"{activation}_shift0"] = dataclasses.replace(
            own, multiplier=1, shift=0
        )
    return variants


#: The (B, H, W) of the psum maps the commutation test pools.
_POOLED_MAP = (2, 6, 6)


def _psum_maps(rng, stage):
    """Full-range golden psums of ``stage``, as many images as it takes
    to fill a (2, K, 6, 6) map per kernel: most zoo stages at TINY
    scale have maps of a pixel or two, which no pool would reduce."""
    layer = stage.layer
    size = math.prod(_POOLED_MAP)
    images = -(-size // (layer.out_height * layer.out_width))
    psums = _golden_psums(stage, _stage_input(rng, stage, images))
    kernels = psums.shape[1]
    flat = psums.transpose(1, 0, 2, 3).reshape(kernels, -1)[:, :size]
    batch, height, width = _POOLED_MAP
    return flat.reshape(kernels, batch, height, width).transpose(
        1, 0, 2, 3
    )


def _seeded_max_pool(rng):
    """A seeded max pool over a 6 x 6 map whose every window holds a
    map pixel (padding < kernel), as the executor requires before it
    pools psums."""
    kernel = int(rng.integers(1, 4))
    return PdpConfig(
        "max",
        kernel=kernel,
        stride=int(rng.integers(1, kernel + 1)),
        padding=int(rng.integers(0, kernel)),
    )


@pytest.mark.parametrize("model", FUZZ_MODELS)
def test_max_pool_commutes_with_the_sdp_epilogue(fuzz_rng, model):
    """The exchange the executor makes when it pools a stage's psums
    before its SDP: ``Pdp(max)`` over the epilogue's output equals the
    epilogue over the max-pooled float psums, and both equal the
    hardware order, ``Sdp.apply_many`` then ``Pdp.apply_many``, on
    every stage at INT8/INT4/INT2, for relu, none and prelu (multiplier
    >= 0), with and without a shift, on full-range psums (in the
    kernel's float dtype) and near-tie psums (in float64), under
    seeded max pools with and without padding.  Outputs must be
    substantially nonzero and most pools wider than one pixel, so the
    identity cannot hold vacuously; the psums of every stage are laid
    out as 6 x 6 maps (see :func:`_psum_maps`) for the pools to
    reduce."""
    live = total = pools = wide = 0
    seen = collections.Counter()
    for precision in PSUM_PRECISIONS:
        net = NetworkRunner(
            CoreConfig(k=4, n=4),
            precision=precision,
            scheduling=False,
            **TINY,
        ).compile(model)
        executor = BatchExecutor(net)
        for stage, plan in zip(net.stages, executor._fused_stages):
            psums = _psum_maps(fuzz_rng, stage)
            sources = [(psums, plan.dtype)]
            ties = _near_tie_values(fuzz_rng, stage, psums.shape)
            if ties is not None:
                sources.append((
                    ties - stage.sdp.bias[None, :, None, None],
                    np.float64,
                ))
            config = _seeded_max_pool(fuzz_rng)
            pool = Pdp(config)
            pools += 1
            wide += config.kernel > 1
            for label, sdp in _commuting_variants(
                fuzz_rng, stage.sdp
            ).items():
                for source, dtype in sources:
                    epilogue = _SdpEpilogue(
                        dataclasses.replace(stage, sdp=sdp),
                        int(np.abs(source).max(initial=0)),
                    )
                    assert epilogue.monotone, label
                    values = source.astype(dtype)
                    after = pool.apply_many(
                        _run_epilogue(epilogue, values.copy())
                    )
                    pooled = pool.apply_many(values)
                    assert pooled.dtype == dtype
                    before = _run_epilogue(epilogue, pooled)
                    expected = Pdp(config).apply_many(
                        Sdp(sdp).apply_many(source)
                    )
                    context = (
                        f"{stage.name} precision={precision} sdp={label} "
                        f"pool={config} dtype={np.dtype(dtype)}"
                    )
                    assert np.array_equal(after, expected), context
                    assert np.array_equal(before, expected), context
                    seen[sdp.activation] += 1
                    seen["shift0"] += sdp.shift == 0
                    seen["padded"] += config.padding > 0
                    live += np.count_nonzero(expected)
                    total += expected.size
    assert all(
        seen[feature]
        for feature in ("relu", "prelu", "none", "shift0", "padded")
    ), seen
    assert wide > pools // 2, (wide, pools)
    assert live > 0.25 * total


def test_the_pool_stays_after_the_sdp_where_it_does_not_commute(
    fuzz_rng,
):
    """resnet18's stem pools its psums before its SDP as compiled.  A
    negative prelu multiplier on the stem (not monotone), an average
    pool after it and a saved stem output each keep the pool after the
    SDP, where ``run_batch`` runs it.  Every variant equals
    ``run_per_image`` in outputs, cycles and stage records, and its
    second stage's input equals the stem's golden psums through
    ``Sdp.apply_many`` and then the PDP, the hardware order."""
    runner = NetworkRunner(CoreConfig(k=4, n=4), **TINY)
    net = runner.compile("resnet18")
    stem, first = net.stages[:2]
    assert first.pool is not None and first.pool.mode == "max"

    def with_stage(index, **changes):
        stages = list(net.stages)
        stages[index] = dataclasses.replace(stages[index], **changes)
        return dataclasses.replace(net, stages=tuple(stages))

    negative = dataclasses.replace(
        stem.sdp,
        activation="prelu",
        prelu_multiplier=-int(fuzz_rng.integers(1, 64)),
        prelu_shift=int(fuzz_rng.integers(1, 7)),
    )
    variants = {
        "as compiled": (net, True),
        "negative prelu": (with_stage(0, sdp=negative), False),
        "average pool": (
            with_stage(1, pool=PdpConfig(
                "average", kernel=first.pool.kernel
            )),
            False,
        ),
        "saved stem": (with_stage(0, save_output=True), False),
    }
    live = total = 0
    for label, (program, pools_psums) in variants.items():
        executor = BatchExecutor(program)
        images = program.precision.random_array(
            fuzz_rng, (3,) + tuple(program.input_shape)
        )
        with recorded_stages(executor) as calls:
            output, stages, cycles = executor.run_batch(images)
        inputs = {step.index: batch for step, batch, _, _ in calls}
        plan = executor._plan
        assert (plan[0].psum_pool is not None) == pools_psums, label
        assert (plan[1].pool is None) == pools_psums, label
        reference = run_per_image(program, images)
        assert np.array_equal(output, reference[0]), label
        assert cycles == reference[2], label
        assert [
            (record.name, record.kind, record.output_shape[1:],
             record.conv_cycles)
            for record in stages
        ] == [
            (record.name, record.kind, record.output_shape,
             record.conv_cycles)
            for record in reference[1]
        ], label
        stage = program.stages[0]
        expected = Pdp(program.stages[1].pool).apply_many(
            Sdp(stage.sdp).apply_many(
                _golden_psums(stage, _fitted(stage, images))
            )
        )
        assert np.array_equal(inputs[1], expected), label
        live += np.count_nonzero(expected)
        total += expected.size
    assert live > 0.25 * total


def test_a_folded_residual_keeps_the_pool_after_the_sdp(fuzz_rng):
    """No zoo program has a folded-residual stage before a max pool, so
    one is built by hand from resnet18: ``layer1.0.conv2`` adds the
    saved output of ``layer1.0.conv1`` and ``layer1.1.conv1`` max-pools
    its input.  A max does not commute with the residual add, so the
    pool stays after the SDP, where ``run_batch`` runs it: the residual
    stage hands on its unpooled output, the next stage takes the PDP of
    it, and the run equals ``run_per_image`` in outputs, cycles and
    stage records.  Without the residual the same pool moves onto the
    psums, so the residual alone keeps it in place."""
    runner = NetworkRunner(CoreConfig(k=4, n=4), **TINY)
    net = runner.compile("resnet18")
    source, target, pooled = 1, 2, 3
    assert net.stages[target].residual_from is None
    assert net.stages[pooled].pool is None
    pool = PdpConfig("max", kernel=2)
    stages = list(net.stages)
    stages[source] = dataclasses.replace(stages[source], save_output=True)
    stages[pooled] = dataclasses.replace(stages[pooled], pool=pool)
    plain = dataclasses.replace(net, stages=tuple(stages))
    stages[target] = dataclasses.replace(
        stages[target], residual_from=source
    )
    folded = dataclasses.replace(net, stages=tuple(stages))
    images = net.precision.random_array(
        fuzz_rng, (3,) + tuple(net.input_shape)
    )
    for label, program, pools_psums in (
        ("residual", folded, False), ("no residual", plain, True),
    ):
        executor = BatchExecutor(program)
        with recorded_stages(executor) as recorded:
            output, records, cycles = executor.run_batch(images)
        calls = {
            step.index: (batch, output)
            for step, batch, _, output in recorded
        }
        plan = executor._plan
        assert (plan[target].psum_pool is not None) == pools_psums, label
        assert (plan[pooled].pool is None) == pools_psums, label
        reference = run_per_image(program, images)
        assert np.array_equal(output, reference[0]), label
        assert cycles == reference[2], label
        assert [
            (record.name, record.kind, record.output_shape[1:],
             record.conv_cycles)
            for record in records
        ] == [
            (record.name, record.kind, record.output_shape,
             record.conv_cycles)
            for record in reference[1]
        ], label
        handed_on = calls[target][1]
        if not pools_psums:
            layer = program.stages[target].layer
            assert handed_on.shape[2:] == (
                layer.out_height, layer.out_width
            ), label
            handed_on = Pdp(pool).apply_many(handed_on)
        assert np.array_equal(calls[pooled][0], handed_on), label
        assert np.count_nonzero(handed_on) > 0.25 * handed_on.size, label


def test_sdp_epilogue_bound_reaching_2_53_is_refused(fuzz_rng):
    """The epilogue's bound ``(psum_bound + max|bias|) * m + 2**(s-1)``
    is checked when the executor is built: a stage whose multiplier
    takes it to 2**53 is refused, naming the stage, and so is a prelu
    branch past it.  One multiplier step below, the epilogue is still
    exact at psums up to the bound."""
    net = NetworkRunner(CoreConfig(k=4, n=4), **TINY).compile(
        "resnet18"
    )
    stage = net.stages[0]
    bound = _FusedStage(stage).bound
    value_bound = bound + int(np.abs(stage.sdp.bias).max())
    shift = 50
    half = 1 << (shift - 1)
    multiplier = -(-((1 << 53) - half) // value_bound)

    def with_sdp(**changes):
        config = dataclasses.replace(stage.sdp, **changes)
        return dataclasses.replace(stage, sdp=config)

    for refused in (
        with_sdp(multiplier=multiplier, shift=shift),
        with_sdp(
            activation="prelu",
            prelu_multiplier=-(-(1 << 53) // value_bound),
            prelu_shift=0,
        ),
    ):
        wide = dataclasses.replace(
            net, stages=(refused,) + net.stages[1:]
        )
        with pytest.raises(
            DataflowError, match=f"{stage.name}: SDP epilogue bound"
        ):
            BatchExecutor(wide)
    accepted = with_sdp(multiplier=multiplier - 1, shift=shift)
    epilogue = _SdpEpilogue(accepted, bound)
    assert epilogue.bound < 1 << 53
    assert epilogue.bound + value_bound >= 1 << 53
    psums = fuzz_rng.integers(
        -bound, bound + 1, size=(2, stage.layer.out_channels, 4, 4)
    )
    psums[0, :, 0, 0] = bound
    psums[0, :, 0, 1] = -bound
    for config in (accepted.sdp,
                   dataclasses.replace(accepted.sdp, activation="none")):
        expected = Sdp(config).apply_many(psums)
        actual = _epilogue(accepted, config, psums, np.float64)
        assert np.array_equal(actual, expected), config.activation
        assert np.count_nonzero(expected) > 0.25 * expected.size


def test_an_out_precision_wider_than_int32_is_refused():
    """Hidden stages hand on int32, so building an executor refuses a
    stage whose SDP output precision does not fit int32, naming the
    stage, wherever the stage stands; INT32 itself is accepted."""
    net = NetworkRunner(CoreConfig(k=4, n=4), **TINY).compile(
        "resnet18"
    )

    def with_out(index, width):
        stage = net.stages[index]
        sdp = dataclasses.replace(stage.sdp, out_precision=int_spec(width))
        stages = list(net.stages)
        stages[index] = dataclasses.replace(stage, sdp=sdp)
        return dataclasses.replace(net, stages=tuple(stages))

    for index in (0, len(net.stages) - 1):
        name = net.stages[index].name
        with pytest.raises(
            DataflowError, match=f"{name}: output precision INT33"
        ):
            BatchExecutor(with_out(index, 33))
        BatchExecutor(with_out(index, 32))


def _scratch_bytes_by_role(executor):
    """Scratch bytes per buffer role (the first element of a scratch
    key)."""
    totals = collections.Counter()
    for key, buffer in executor._scratch.items():
        totals[key[0]] += buffer.nbytes
    return totals


def _need_bytes_by_role(step):
    """The scratch bytes per buffer role that ``step`` binds."""
    totals = collections.Counter()
    for (role, dtype), shape in step.needs.items():
        totals[role] += math.prod(shape) * dtype.itemsize
    return totals


def _assert_scratch_is_sized_to_the_largest_stage(rng, model):
    """One model's check of the test below."""
    net = NetworkRunner(CoreConfig(k=4, n=4), **TINY).compile(model)
    executor = BatchExecutor(net)
    assert len({plan.dtype for plan in executor._fused_stages}) == 1
    batch_size = 8
    with recorded_stages(executor) as stage_inputs:
        executor.run_batch(
            net.precision.random_array(
                rng, (batch_size,) + tuple(net.input_shape)
            )
        )
    assert len(stage_inputs) == len(net.stages)
    largest = collections.Counter()
    summed = collections.Counter()
    pooled = 0
    for step, batch, _, _ in stage_inputs:
        index, stage = step.index, step.stage
        needs = _need_bytes_by_role(stage_step(executor, index, batch.shape))
        layer = stage.layer
        height, width = layer.out_height, layer.out_width
        epilogue = 8 * batch_size * layer.out_channels * height * width
        assert needs["epilogue"] == epilogue, stage.name
        if executor._plan[index].psum_pool is not None:
            pool = Pdp(net.stages[index + 1].pool)
            needs["epilogue"] = (
                8 * batch_size * layer.out_channels
                * math.prod(pool.output_size(height, width))
            )
            pooled += 1
        for role, nbytes in needs.items():
            largest[role] = max(largest[role], nbytes)
            summed[role] += nbytes
    assert _scratch_bytes_by_role(executor) == largest, model
    assert pooled == (model == "resnet18"), (model, pooled)
    # Non-vacuous: sharing saves most of the per-stage sum (less on
    # resnet18, which has 20 stages to mobilenet_v2's 52).
    saving = {"mobilenet_v2": 4, "resnet18": 3}[model]
    assert sum(summed.values()) > saving * sum(largest.values()), model


def test_scratch_is_sized_to_the_largest_stage_per_role(fuzz_rng):
    """After a batch-8 forward on mobilenet_v2 and on resnet18, the
    executor's scratch is, per role, the largest single stage's need —
    not the sum over stages.  Each stage's need is what it takes run
    alone, except the float64 epilogue buffer, which is taken from the
    layer geometry: B x K x OH x OW, at the PDP's ``output_size`` of
    OH x OW where the plan pools the stage's psums (resnet18's stem; a
    stage run alone never pools).  Where a stage is not pooled, the
    geometry equals its need run alone."""
    for model in ("mobilenet_v2", "resnet18"):
        _assert_scratch_is_sized_to_the_largest_stage(fuzz_rng, model)


# ---------------------------------------------------------------------
# Per-shape plans: replayed, one kept, viewing only live scratch.


def _scratch_views(step):
    """Every scratch view one plan step holds (the weights it holds
    are not scratch)."""
    arrays = [
        *step.zeros,
        *(view for view, _ in step.copies),
        *(array for matmul in step.matmuls for array in matmul),
        step.windows, step.columns, step.operand, step.product,
        step.psums, step.buffer,
    ]
    return [
        array for array in arrays
        if array is not None
        and not np.may_share_memory(array, step.weights)
    ]


def _assert_plans_view_live_scratch(executor):
    """The kept plan holds no view of a replaced scratch buffer."""
    buffers = list(executor._scratch.values())
    for step in executor._plan:
        for view in _scratch_views(step):
            assert any(
                np.may_share_memory(view, buffer) for buffer in buffers
            ), f"stage {step.stage.name} at {step.in_shape}: stale view"


@pytest.mark.parametrize("model", ("resnet18", "mobilenet_v2"))
def test_plans_replay_across_batch_sizes(fuzz_rng, model):
    """One executor runs batches of 8, 1, 8, 32 (its scratch grows)
    and 1 images.  Every run equals a fresh
    executor's and the per-image run through the real cores in
    outputs, cycles and stage records; every stage's output equals the
    same stage run alone on a freshly bound one-stage plan (so a pad
    border or seam region another stage dirtied would show) — followed
    by the next stage's PDP max pool where the plan pools the stage's
    psums before its SDP, which a stage run alone never does (resnet18's
    stem; mobilenet_v2 has no pool); and every kept plan views only the
    executor's current scratch."""
    runner = NetworkRunner(CoreConfig(k=4, n=4), precision="int2", **TINY)
    net = runner.compile(model)
    executor = BatchExecutor(net)
    live = total = pooled = 0
    for batch in (8, 1, 8, 32, 1):
        context = f"model={model} batch={batch}"
        images = net.precision.random_array(
            fuzz_rng, (batch,) + tuple(net.input_shape)
        )
        with recorded_stages(executor) as calls:
            output, stages, cycles = executor.run_batch(images)
        fresh = BatchExecutor(net).run_batch(images)
        assert np.array_equal(output, fresh[0]), context
        assert (stages, cycles) == fresh[1:], context
        reference = runner.run_per_image(model, images)
        assert np.array_equal(output, reference.output), context
        assert cycles == reference.conv_cycles, context
        assert [
            (record.name, record.kind, record.output_shape[1:],
             record.conv_cycles)
            for record in stages
        ] == [
            (record.name, record.kind, record.output_shape,
             record.conv_cycles)
            for record in reference.stages
        ], context
        assert len(calls) == len(net.stages), context
        for step, batch_in, residual, stage_output in calls:
            index, stage = step.index, step.stage
            expected = stage_step(executor, index, batch_in.shape) \
                .conv_fused(batch_in, residual)
            if step.psum_pool is not None:
                # Hardware order: SDP, then the next stage's PDP.
                expected = Pdp(net.stages[index + 1].pool).apply_many(
                    expected
                )
                pooled += 1
            assert np.array_equal(expected, stage_output), (
                f"{context} stage={stage.name}"
            )
            live += np.count_nonzero(stage_output)
            total += stage_output.size
        _assert_plans_view_live_scratch(executor)
    assert executor._plan_shape == (1,) + tuple(net.input_shape)
    assert live > 0.1 * total
    assert (pooled > 0) == (model == "resnet18"), pooled


def test_executor_keeps_only_the_last_plan(fuzz_rng, monkeypatch):
    """A batch replays the kept plan when the last batch had its shape
    and builds (and keeps) a new one when the shape changes; every
    output equals a fresh executor's."""
    runner = NetworkRunner(CoreConfig(k=4, n=4), **TINY)
    net = runner.compile("resnet18")
    executor = BatchExecutor(net)
    built = []
    build = executor._build_plan

    def counted(shape):
        built.append(shape[0])
        return build(shape)

    monkeypatch.setattr(executor, "_build_plan", counted)
    shape = tuple(net.input_shape)
    for batch in (2, 2, 3, 3, 3, 2, 1, 1):
        images = net.precision.random_array(fuzz_rng, (batch,) + shape)
        output, _, _ = executor.run_batch(images)
        assert executor._plan_shape == (batch,) + shape
        assert np.array_equal(
            output, BatchExecutor(net).run_batch(images)[0]
        ), batch
        _assert_plans_view_live_scratch(executor)
    assert built == [2, 3, 2, 1]


def test_seams_make_no_padded_copies(fuzz_rng, monkeypatch):
    """The spatial seams (resnet18's downsample seams zero-pad a map
    smaller than the declared input) and the unpadded PDP pool write
    straight into the stage operands: a batch calls no ``np.pad``."""
    runner = NetworkRunner(CoreConfig(k=4, n=4), **TINY)
    net = runner.compile("resnet18")
    executor = BatchExecutor(net)
    images = net.precision.random_array(
        fuzz_rng, (2,) + tuple(net.input_shape)
    )
    expected = runner.run_per_image("resnet18", images)
    padded = [
        step.stage.name
        for step in executor._build_plan(images.shape)
        if step.zero_index and not (
            step.stage.layer.padding_h or step.stage.layer.padding_w
        )
    ]
    assert padded, "no zero-padding seam exercised"
    assert any(stage.pool is not None for stage in net.stages)

    def refuse(*args, **kwargs):
        raise AssertionError("np.pad called on the batched path")

    monkeypatch.setattr(np, "pad", refuse)
    output, stages, cycles = executor.run_batch(images)
    assert np.array_equal(output, expected.output)
    assert cycles == expected.conv_cycles


# ---------------------------------------------------------------------
# Seams and the output contract on live data.


def _delivered_shapes(net, batch):
    """The (B, C, H, W) input each stage's conv receives in a run: the
    previous stage's output (the network input for the first), pooled
    by the stage's PDP over the channels it keeps — not yet fitted to
    the stage's declared input."""
    shape = (batch,) + tuple(net.input_shape)
    shapes = []
    for stage in net.stages:
        if stage.pool is not None:
            shape = (
                (batch, min(shape[1], stage.fit_channels))
                + Pdp(stage.pool).output_size(*shape[2:])
            )
        shapes.append(shape)
        layer = stage.layer
        height, width = (
            shape[2:] if stage.dynamic_hw else stage.fit_hw
        )
        shape = (
            batch, layer.out_channels,
            (height + 2 * layer.padding_h - layer.kernel_h)
            // layer.stride + 1,
            (width + 2 * layer.padding_w - layer.kernel_w)
            // layer.stride + 1,
        )
    return shapes


def _fitted(stage, batch):
    """``batch`` through the stage's seam adapters, as the per-image
    path applies them."""
    batch = fit_channels(batch, stage.fit_channels, axis=1)
    if stage.dynamic_hw:
        return batch
    return fit_spatial(batch, stage.fit_hw, first_axis=2)


def _as_stage_output(array):
    """``array`` laid out like a stage output the executor hands on:
    channels-last in memory, seen as (B, K, H, W)."""
    return _channels_last(array).copy().transpose(0, 3, 1, 2)


#: The nets whose stages receive inputs their seams reshape at TINY
#: scale (resnet18's zero-padded downsample seams, the branch concats
#: and splits of the others); mobilenet_v2 and tiny_llm chain exactly.
_SEAM_MODELS = ("resnet18", "shufflenet_v2", "googlenet")


@pytest.mark.parametrize("model", FUZZ_MODELS + ("tiny_llm",))
def test_seams_on_live_data_match_the_reference(fuzz_rng, model):
    """Every stage, fed a full-range input at the unfitted shape the
    previous stage delivers (after its PDP pool), equals
    ``Sdp.apply_many`` over the int64 golden conv of the fitted input,
    plus the folded residual where the stage has one (tiny_llm's), at
    INT8/INT4/INT2, under the stage's own SDP and its
    activation="none" variant.  End-to-end CNN outputs are mostly
    zero, so this is what pins the channel tiling/slicing, the crop
    and zero-pad seams and the pad borders on live data: the compared
    outputs must be mostly nonzero (relu zeroes about half of the own
    SDP's), and the seams must reshape some inputs of every net that
    has them."""
    live = total = seams = 0
    for precision in PSUM_PRECISIONS:
        sizes = TINY if model != "tiny_llm" else dict(
            scale=0.0625, input_size=8
        )
        net = NetworkRunner(
            CoreConfig(k=4, n=4), precision=precision, **sizes
        ).compile(model)
        linear = dataclasses.replace(net, stages=tuple(
            dataclasses.replace(
                stage,
                sdp=dataclasses.replace(stage.sdp, activation="none"),
            )
            for stage in net.stages
        ))
        for program in (net, linear):
            executor = BatchExecutor(program)
            for index, (stage, shape) in enumerate(
                zip(program.stages, _delivered_shapes(program, 2))
            ):
                batch = stage.precision.random_array(fuzz_rng, shape)
                fitted = _fitted(stage, batch)
                seams += fitted.shape != batch.shape
                expected = Sdp(stage.sdp).apply_many(
                    _golden_psums(stage, fitted)
                )
                residual = None
                if stage.residual_from is not None:
                    spec = stage.sdp.out_precision
                    residual = spec.random_array(fuzz_rng, expected.shape)
                    expected = np.clip(
                        expected + residual, spec.min_value,
                        spec.max_value,
                    )
                    residual = _as_stage_output(residual)
                actual = stage_step(executor, index, batch.shape) \
                    .conv_fused(batch, residual)
                final = index == len(program.stages) - 1
                assert actual.dtype == (np.int64 if final else np.int32)
                assert np.array_equal(actual, expected), (
                    f"{stage.name} precision={precision} "
                    f"activation={stage.sdp.activation} in={shape} "
                    f"fitted={fitted.shape}"
                )
                live += np.count_nonzero(expected)
                total += expected.size
    assert (seams > 0) == (model in _SEAM_MODELS), seams
    assert live > 0.5 * total, live / total


def _truncated(net, kind, fused_stages):
    """``net`` cut after its last stage of fused-kernel ``kind`` whose
    output is wider than one pixel, so that the channels-last and the
    (B, K, OH, OW) layouts of its output differ in memory."""
    last = max(
        index
        for index, (stage, plan) in enumerate(zip(net.stages, fused_stages))
        if plan.kind == kind
        and stage.layer.out_height * stage.layer.out_width > 1
    )
    return dataclasses.replace(net, stages=net.stages[:last + 1])


def _assert_api_output(executor, output, shape):
    """``output`` is a C-contiguous (B, K, OH, OW) int64 array of
    ``shape`` that shares no memory with the executor's scratch."""
    assert output.dtype == np.int64
    assert output.shape == shape
    assert output.flags.c_contiguous
    assert output.flags.owndata
    for buffer in executor._scratch.values():
        assert not np.may_share_memory(output, buffer)


@pytest.mark.parametrize(
    "model,kind",
    [("resnet18", "gemm"), ("resnet18", "pointwise"),
     ("resnet18", "stem"), ("mobilenet_v2", "pointwise"),
     ("mobilenet_v2", "depthwise")],
)
def test_run_batch_returns_a_private_contiguous_nchw_array(
    fuzz_rng, model, kind
):
    """The output contract: ``run_batch`` returns a fresh C-contiguous
    (B, K, OH, OW) int64 array, whichever fused-kernel kind the last
    stage runs on, and every stage run alone computes its psums in the
    stage dtype, (B, K, OH, OW) seen through the channels-last
    scratch."""
    net = NetworkRunner(CoreConfig(k=4, n=4), **TINY).compile(model)
    net = _truncated(net, kind, BatchExecutor(net)._fused_stages)
    executor = BatchExecutor(net)
    assert executor._fused_stages[-1].kind == kind
    images = net.precision.random_array(
        fuzz_rng, (3,) + tuple(net.input_shape)
    )
    output, _, _ = executor.run_batch(images)
    _assert_api_output(executor, output, (3,) + net.output_shape)
    assert np.array_equal(output, run_per_image(net, images)[0])
    # End-to-end outputs may be all zero; the psums on full-range
    # inputs are not.
    live = total = 0
    for step in executor._plan:
        stage = step.stage
        batch = stage.precision.random_array(fuzz_rng, step.in_shape)
        psums = _psums(executor, step.index, batch)
        assert psums.shape == step.out_shape, stage.name
        assert psums.dtype == executor._fused_stages[step.index].dtype
        expected = _golden_psums(stage, _fitted(stage, batch))
        assert np.array_equal(psums, expected), stage.name
        live += np.count_nonzero(expected)
        total += expected.size
    assert live > 0.5 * total


@pytest.mark.parametrize("model", MODEL_NAMES + ("tiny_llm",))
def test_stages_hand_on_int32_and_the_api_returns_int64(fuzz_rng, model):
    """Every hidden stage hands the next one a fresh int32 array (through
    the PDP max pools and the seams), while the final stage's output,
    and so ``run_batch``'s and ``run_job``'s, is a C-contiguous int64
    (B, K, OH, OW) array, on every zoo model and tiny_llm."""
    sizes = TINY if model != "tiny_llm" else dict(
        scale=0.0625, input_size=8
    )
    net = NetworkRunner(CoreConfig(k=4, n=4), **sizes).compile(model)
    executor = BatchExecutor(net)
    images = net.precision.random_array(
        fuzz_rng, (2,) + tuple(net.input_shape)
    )
    with recorded_stages(executor) as calls:
        output, _, _ = executor.run_batch(images)
    handed = [
        (step.index, batch.dtype, stage_output)
        for step, batch, _, stage_output in calls
    ]
    last = len(net.stages) - 1
    assert [index for index, _, _ in handed] == list(range(last + 1))
    for index, in_dtype, stage_output in handed:
        name = net.stages[index].name
        if index:
            assert in_dtype == np.int32, name
        if index < last:
            assert stage_output.dtype == np.int32, name
            assert stage_output.flags.owndata, name
    assert handed[-1][2] is output
    _assert_api_output(executor, output, (2,) + net.output_shape)
    job = executor.run_job(images)
    _assert_api_output(executor, job["output"], output.shape)
    assert np.array_equal(job["output"], output)


def test_decode_steps_return_private_contiguous_nchw_arrays(fuzz_rng):
    """A decode's full first step and its reused later steps (only the
    new row runs) all return fresh C-contiguous (B, K, T, 1) int64
    arrays, private to the caller: no view of the executor's scratch
    or of the rows it keeps."""
    net = NetworkRunner(
        CoreConfig(k=4, n=4), scale=0.0625, input_size=8
    ).compile("tiny_llm")
    executor = BatchExecutor(net)
    channels, _, width = net.input_shape
    stream = net.precision.random_array(fuzz_rng, (2, channels, 6, width))
    for tokens in (3, 4, 5, 6):
        output, _, _ = executor.run_batch(stream[:, :, :tokens])
        assert executor._last[2] == tokens
        _assert_api_output(
            executor, output, (2, net.output_shape[0], tokens, width)
        )
        for kept in executor._last[:2]:
            assert not np.may_share_memory(output, kept)
        assert np.array_equal(
            output, BatchExecutor(net).run_batch(stream[:, :, :tokens])[0]
        ), tokens
