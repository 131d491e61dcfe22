"""Randomized differential tests: fused executor == unfused executor.

The fused hot path (exact float-GEMM conv + in-place SDP with
per-stage scratch reuse) is a pure host-speed optimization — it must
be **bit-identical** to the stage-at-a-time reference path in outputs
AND cycle accounting (total and per stage), for every backend, every
precision profile, every batch size, with and without scheduling.
Its pre-SDP psums are also pinned stage by stage against the int64
golden convolution on full-range inputs (end-to-end identity alone
can compare all-zero logits), and its per-stage float dtype against
the exactness bound at the float32 / float64 / no-float edges.

All randomness flows from the ``fuzz_rng`` fixture, which derives from
the ``PYTEST_SEED`` environment variable; a failure report prints the
seed, so any counterexample replays exactly.
"""

import dataclasses

import numpy as np
import pytest

from repro.errors import DataflowError
from repro.nvdla.config import CoreConfig
from repro.nvdla.dataflow import golden_conv2d_batched
from repro.runtime import BatchExecutor, NetworkRunner
from repro.runtime.executor import exact_float_dtype
from repro.utils.intrange import INT2, INT8

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


def _assert_identical(fused_job, plain_job, context):
    assert np.array_equal(
        fused_job["output"], plain_job["output"]
    ), f"output mismatch: {context}"
    assert (
        fused_job["conv_cycles"] == plain_job["conv_cycles"]
    ), f"total cycles mismatch: {context}"
    assert (
        fused_job["stage_cycles"] == plain_job["stage_cycles"]
    ), f"per-stage cycles mismatch: {context}"
    assert (
        fused_job["stage_meta"] == plain_job["stage_meta"]
    ), f"stage metadata mismatch: {context}"


def _run_pair(runner, model, images):
    net = runner.compile(model)
    plain = BatchExecutor(net).run_job(images)
    fused = BatchExecutor(net, fused=True).run_job(images)
    return fused, plain


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
        fused, plain = _run_pair(runner, scenario["model"], images)
        _assert_identical(fused, plain, f"scenario={scenario}")


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
    fused, plain = _run_pair(runner, model, images)
    _assert_identical(
        fused, plain, f"model={model} engine={engine} "
        f"precision={precision} batch={batch}"
    )


def test_fused_executor_reuses_scratch_across_batches(fuzz_rng):
    """Repeated jobs through one fused executor stay correct while the
    scratch buffers are recycled (the pad borders must read zero on
    every pass, not just the first)."""
    runner = NetworkRunner(CoreConfig(k=4, n=4), **TINY)
    net = runner.compile("resnet18")
    plain = BatchExecutor(net)
    fused = BatchExecutor(net, fused=True)
    for round_index in range(3):
        batch = int(fuzz_rng.integers(1, 5))
        images = net.precision.random_array(
            fuzz_rng, (batch,) + tuple(net.input_shape)
        )
        _assert_identical(
            fused.run_job(images),
            plain.run_job(images),
            f"round={round_index} batch={batch}",
        )
    # Reuse happened: plans and scratch persisted across jobs.
    assert fused._fused_stages
    assert fused._scratch


def test_fused_output_not_aliased_to_scratch(fuzz_rng):
    """Returned outputs are private copies — a later batch through the
    same executor must not mutate an earlier batch's result."""
    runner = NetworkRunner(CoreConfig(k=4, n=4), **TINY)
    net = runner.compile("mobilenet_v2")
    fused = BatchExecutor(net, fused=True)
    images = net.precision.random_array(
        fuzz_rng, (2,) + tuple(net.input_shape)
    )
    first = fused.run_job(images)["output"]
    snapshot = first.copy()
    fused.run_job(
        net.precision.random_array(
            fuzz_rng, (2,) + tuple(net.input_shape)
        )
    )
    assert np.array_equal(first, snapshot)


def test_fused_flag_default_off():
    """``fused`` is opt-in at every layer: the stock executor and the
    runner-built executors take the reference path unless asked."""
    runner = NetworkRunner(CoreConfig(k=4, n=4), **TINY)
    net = runner.compile("resnet18")
    assert BatchExecutor(net).fused is False
    assert runner.executor("resnet18").fused is False
    assert NetworkRunner(
        CoreConfig(k=4, n=4), fused=True, **TINY
    ).executor("resnet18").fused is True


def test_fused_matches_int8_spec_bounds(fuzz_rng):
    """Fused SDP requant clips into the stage output spec exactly like
    the reference path (spot check on the paper's INT8 profile)."""
    runner = NetworkRunner(CoreConfig(k=4, n=4), **TINY)
    net = runner.compile("googlenet")
    images = net.precision.random_array(
        fuzz_rng, (3,) + tuple(net.input_shape)
    )
    output = BatchExecutor(net, fused=True).run_job(images)["output"]
    assert output.min() >= INT8.min_value
    assert output.max() <= INT8.max_value


# ---------------------------------------------------------------------
# Stage-level psum identity and the exactness bound.

PSUM_PRECISIONS = ("int8", "int4", "int2")


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
        np.concatenate(stage.weights),
        layer.stride,
        (layer.padding_h, layer.padding_w),
        layer.groups,
    )


@pytest.mark.parametrize("model", FUZZ_MODELS)
def test_fused_psums_match_int64_golden_on_every_stage(fuzz_rng, model):
    """Every stage's fused pre-SDP psums equal the int64 golden conv
    on full-range inputs, scheduled and unscheduled, at every
    precision.  The golden side uses the *unscheduled* lowering's
    weights, so the scheduled run also checks the channel-order
    folding and kernel restore.  Psums must be mostly nonzero, so the
    identity cannot hold vacuously."""
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
            executor = BatchExecutor(net, fused=True)
            assert len(net.stages) == len(logical.stages)
            run_live = run_total = 0
            for index, (stage, reference) in enumerate(
                zip(net.stages, logical.stages)
            ):
                assert stage.name == reference.name
                scheduled_stages += any(
                    schedule is not None for schedule in stage.schedules
                )
                batch = _stage_input(fuzz_rng, stage)
                psums = executor._fused_psums(index, stage, batch)
                expected = _golden_psums(reference, batch)
                assert psums.dtype == np.int64
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
    probe = BatchExecutor(net, fused=True)
    index = next(
        position
        for position, plan in enumerate(probe._fused_stages)
        if plan.kind == kind
    )
    stage = net.stages[index]
    assert stage.precision == INT2
    weights = [np.array(group) for group in stage.weights]
    # The first kernel is all negative with L1 mass exactly
    # ``kernel_l1``, so an input pinned at the most negative code
    # drives its psum to the bound; the rest get random weights of up
    # to the same per-tap magnitude.
    fan_in = weights[0][0].size
    per_tap = kernel_l1 // fan_in
    for group in weights:
        group[...] = rng.integers(-per_tap, per_tap + 1, size=group.shape)
    first = weights[0][0]
    first[...] = -per_tap
    first.flat[0] -= kernel_l1 - fan_in * per_tap
    stage = dataclasses.replace(
        stage,
        weights=tuple(weights),
        schedules=(None,) * len(weights),
        kernel_restores=(None,) * len(weights),
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
    executor = BatchExecutor(net, fused=True)
    plan = executor._fused_stages[0]
    assert plan.kind == kind
    assert plan.bound == 2 * kernel_l1
    assert plan.dtype == dtype
    batch = _bound_inputs(fuzz_rng, stage)
    expected = _golden_psums(stage, batch)
    assert np.abs(expected).max() == plan.bound
    assert np.array_equal(
        executor._fused_psums(0, stage, batch), expected
    )
    # The full fused run (SDP included) agrees with the unfused path.
    _assert_identical(
        executor.run_job(batch),
        BatchExecutor(net).run_job(batch),
        f"{model} {kind} bound={plan.bound}",
    )


def test_fused_bound_past_float64_is_refused(fuzz_rng):
    """A stage whose bound reaches 2**53 cannot run exactly on any
    float dtype: building the fused executor raises, naming it."""
    net = _bound_stage(fuzz_rng, "resnet18", "gemm", 1 << 52)
    with pytest.raises(DataflowError, match=net.stages[0].name):
        BatchExecutor(net, fused=True)
    BatchExecutor(net)  # the int64 path has no such limit


@pytest.mark.parametrize("fused", [False, True])
def test_run_batch_rejects_out_of_range_input(fuzz_rng, fused):
    """run_batch checks the network input against its precision once
    per batch — the precondition of the fused exactness bound — while
    inputs at both range ends run."""
    runner = NetworkRunner(CoreConfig(k=4, n=4), **TINY)
    net = runner.compile("mobilenet_v2")
    executor = BatchExecutor(net, fused=fused)
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
