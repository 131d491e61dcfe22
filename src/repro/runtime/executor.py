"""Shared batched execution engine for compiled networks.

:class:`BatchExecutor` is the single implementation of the vectorized
forward pass over a :class:`~repro.runtime.lowering.CompiledNetwork`:
seam adapters, PDP pools, each conv stage as an exact float GEMM on
BLAS, one float64 SDP epilogue over its psums and the analytic cycle
accounting — per stage, on the stage's registered compute backend
(:mod:`repro.runtime.backends`).  Both the in-process
:class:`~repro.runtime.runner.NetworkRunner` and the worker processes of
:class:`~repro.serve.ShardedRunner` execute batches through this one
class, which is what makes the sharded serving path bit-identical (in
outputs *and* cycles) to single-process inference: there is exactly one
batched code path, and its oracle is the per-image run through the real
convolution cores
(:func:`~repro.runtime.runner.run_per_image`).

Beyond its compiled program the executor holds derived, reusable
state — per-stage GEMM plans with their SDP epilogue constants,
per-stage cycle lines and grow-only scratch buffers — and, on a
token-independent program
(:attr:`~repro.runtime.lowering.CompiledNetwork.token_independent`),
private copies of its last input batch and output: a batch that
strictly extends the last one along the token axis (autoregressive
decode) runs only its new rows, so each decoded token is computed
once.  A CNN executor keeps no reference to any batch.  A stage's
per-image cycles are affine in its output pixels,
``per_pixel * out_pixels + fixed``, with both terms fixed by the
compiled weights (see
:meth:`~repro.runtime.backends.ComputeBackend.cycle_line`).  The
executor derives each stage's line once, at construction — the only
burst maps it ever computes — and a batch evaluates the line at its
actual output-pixel count.  Serving workers build their own executor
from the compiled network, which pickles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import DataflowError, PrecisionError
from repro.nvdla.pdp import Pdp
from repro.runtime.backends import ComputeBackend, backend_profile, \
    resolve_stage_backends
from repro.runtime.lowering import CompiledNetwork, StagePlan

try:
    # The clip ufunc itself: np.clip's Python wrapper costs more than
    # the clip at decode sizes.
    from numpy._core.umath import clip as _clip
except ImportError:  # NumPy 1.x
    from numpy.core.umath import clip as _clip

#: Exact-integer limits of the float dtypes the conv kernel may use:
#: every integer of magnitude up to 2**24 (float32) / 2**53 (float64)
#: is representable, so a GEMM whose worst-case partial sum stays below
#: the limit produces exact integers whatever the summation order.
EXACT_FLOAT_LIMITS = ((1 << 24, np.float32), (1 << 53, np.float64))


@dataclass(frozen=True)
class StageResult:
    """Execution record of one stage: a conv stage with its cycles, or
    the PDP pool a seam adapter ran before it (zero cycles)."""

    name: str
    kind: str
    output_shape: tuple[int, ...]
    conv_cycles: int = 0


def exact_float_dtype(bound: int) -> np.dtype:
    """The narrowest float dtype that carries every partial sum of
    magnitude <= ``bound`` exactly.

    Raises:
        DataflowError: ``bound`` reaches 2**53 — no float dtype is
            exact there.
    """
    for limit, dtype in EXACT_FLOAT_LIMITS:
        if bound < limit:
            return np.dtype(dtype)
    raise DataflowError(
        f"psum bound {bound} >= 2**53: no exact float dtype"
    )


class _FusedStage:
    """Exact float-GEMM plan for one conv stage.

    Built once per stage when the executor is constructed, from the
    stage's natural-order (G, K, C, R, S) weights — tile order changes
    cycles, never psums, so the kernel needs no permutation — converted
    to the float dtype picked by the stage's exactness bound::

        bound = max_k sum_i |w_ki| * max|x|

    with ``max|x|`` the magnitude of the stage precision's most
    negative code.  Every partial sum of every kernel is an integer of
    magnitude <= bound, so below 2**24 (float32) or 2**53 (float64) it
    is exactly representable and any BLAS summation order or FMA gives
    bit-identical psums; at 2**53 construction raises
    :class:`DataflowError`.  The bound holds only for inputs inside the
    stage precision: hidden stages receive SDP-clipped activations and
    :meth:`BatchExecutor.run_batch` checks the network input.

    The weight layout follows the stage's kernel shape:

    * ``"depthwise"`` (one channel per group, one kernel per group):
      ``(R, S, C)`` tap weights for a per-tap multiply-accumulate;
    * ``"pointwise"`` (1x1 kernels, no padding): ``(G, Kg, Cg)`` for one
      grouped matmul straight over the (strided) input;
    * ``"gemm"`` (everything else): ``(G, Kg, Cg*R*S)`` against im2col
      columns laid out ``(B, G, Cg, R, S, OH*OW)``.

    The plan also carries the stage's :class:`_SdpEpilogue`, whose
    own exactness bound builds on this psum bound.  Cycle accounting
    lives beside the plan, as the stage's cycle line (see
    :func:`_stage_cycle_line`): per-image cycles depend on the
    *actual* output-pixel count, which grows per step under
    autoregressive decode.
    """

    __slots__ = ("kind", "weights", "dtype", "bound", "epilogue")

    def __init__(self, stage: StagePlan) -> None:
        weights = np.asarray(stage.weights, dtype=np.int64)
        groups, kernels_per_group, channels_per_group, kernel_h, \
            kernel_w = weights.shape
        kernel_l1 = np.abs(weights).reshape(
            groups * kernels_per_group, -1
        ).sum(axis=1)
        self.bound = (
            int(kernel_l1.max(initial=0))
            * stage.precision.max_magnitude
        )
        try:
            self.dtype = exact_float_dtype(self.bound)
        except DataflowError as error:
            raise DataflowError(f"{stage.name}: {error}") from None
        layer = stage.layer
        if channels_per_group == 1 and kernels_per_group == 1:
            self.kind = "depthwise"
            weights = weights.reshape(groups, kernel_h, kernel_w)
            weights = weights.transpose(1, 2, 0)
        elif kernel_h == kernel_w == 1 and not (
            layer.padding_h or layer.padding_w
        ):
            self.kind = "pointwise"
            weights = weights.reshape(
                groups, kernels_per_group, channels_per_group
            )
        else:
            self.kind = "gemm"
            weights = weights.reshape(
                groups, kernels_per_group, -1
            )
        self.weights = np.ascontiguousarray(weights, dtype=self.dtype)
        self.epilogue = _SdpEpilogue(stage, self.bound)


class _SdpEpilogue:
    """The stage's SDP in float64, in one buffer over its exact psums.

    Equal, element for element, to :meth:`repro.nvdla.sdp.Sdp.apply_many`
    followed by the folded residual add.  With ``v = psum + bias``, the
    integer SDP computes ``round_half_away(v * m / 2**s)`` (after relu or
    prelu on ``v``) and saturates; here that is::

        x = psum * scale + offset      scale = m * 2**-s
        relu:  offset = (bias*m + 2**(s-1)) * 2**-s, clip x to
               [max(0, lo), hi], then truncate — on x >= 0 that is
               floor, so the relu and the rounding both fold into the
               clip
        none:  offset = bias*m * 2**-s, round half away from zero as
               trunc(x + copysign(1/2, x)), clip to [lo, hi]

    prelu adds the bias first, scales and rounds the negative side by
    its own multiplier and shift, then continues like "none".  A folded
    residual is added to the truncated, saturated output and saturates
    again, in the same buffer; one ``astype(int64)`` at the end makes
    the result (a fresh array) and does the final truncation.

    Every intermediate is an integer multiple of ``2**-s`` whose
    numerator is at most ``(psum_bound + max|bias|) * m + 2**(s-1)``
    (and the analogous terms of the prelu branch), so below 2**53 — the
    bound checked here, when the executor is built — every float64 step
    is exact and the epilogue agrees with the integer SDP bit for bit.
    The product is taken in float64 whatever the psum dtype: a float32
    psum times a Python float stays float32 under NumPy 2's promotion
    rules, and would round.

    Raises:
        DataflowError: the bound reaches 2**53 (the message names the
            stage).
    """

    __slots__ = ("activation", "scale", "offset", "shift", "bias",
                 "prelu_scale", "prelu_shift", "low", "out_low", "high",
                 "bound")

    def __init__(self, stage: StagePlan, psum_bound: int) -> None:
        config = stage.sdp
        self.activation = config.activation
        self.shift = config.shift
        multiplier = config.multiplier
        channels = stage.layer.out_channels
        bias = (
            np.zeros(channels, dtype=np.int64)
            if config.bias is None
            else np.asarray(config.bias, dtype=np.int64)
        )
        if bias.shape != (channels,):
            raise DataflowError(
                f"{stage.name}: bias shape {bias.shape} != ({channels},)"
            )
        half = _half(config.shift)
        value_bound = psum_bound + int(np.abs(bias).max(initial=0))
        self.bound = value_bound * multiplier + half
        self.scale = math.ldexp(multiplier, -config.shift)
        numerators = bias * multiplier
        if self.activation == "relu":
            numerators = numerators + half
        elif self.activation == "prelu":
            negative = (
                value_bound * config.prelu_multiplier
                + _half(config.prelu_shift)
            )
            self.bound = max(
                self.bound,
                negative,
                (negative >> config.prelu_shift) * multiplier + half,
            )
            self.prelu_scale = math.ldexp(
                config.prelu_multiplier, -config.prelu_shift
            )
            self.prelu_shift = config.prelu_shift
            self.bias = bias.astype(np.float64)[:, None, None]
        if self.bound >= 1 << 53:
            raise DataflowError(
                f"{stage.name}: SDP epilogue bound {self.bound} >= "
                f"2**53: not exact in float64"
            )
        self.offset = np.ldexp(
            numerators.astype(np.float64), -config.shift
        )[:, None, None]
        spec = config.out_precision
        self.out_low = float(spec.min_value)
        self.high = float(spec.max_value)
        self.low = (
            max(0.0, self.out_low)
            if self.activation == "relu"
            else self.out_low
        )

    def __call__(
        self,
        psums: np.ndarray,
        out: np.ndarray,
        residual: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Requantize (B, K, OH, OW) float ``psums`` into a fresh int64
        array, working in ``out`` (float64, the same shape).  ``psums``
        is overwritten: it holds the rounding term."""
        if self.activation == "prelu":
            np.add(psums, self.bias, dtype=np.float64, out=out)
            negative = out < 0
            np.multiply(out, self.prelu_scale, out=out, where=negative)
            if self.prelu_shift:
                # Round half away from zero on negatives:
                # -floor(|y| + 1/2) == ceil(y - 1/2).
                np.subtract(out, 0.5, out=out, where=negative)
                np.ceil(out, out=out, where=negative)
            out *= self.scale
        else:
            np.multiply(psums, self.scale, dtype=np.float64, out=out)
            out += self.offset
        if self.activation != "relu" and self.shift:
            # trunc(x + copysign(1/2, x)) == copysign(floor(|x| + 1/2), x);
            # the truncation is the cast's (or np.trunc's below).
            out += np.copysign(0.5, out, out=psums)
        _clip(out, self.low, self.high, out=out)
        if residual is not None:
            # The SDP's elementwise-add unit: the residual joins the
            # requantized output in the activation format and the sum
            # saturates again.
            np.trunc(out, out=out)
            out += residual
            _clip(out, self.out_low, self.high, out=out)
        return out.astype(np.int64)


def _half(shift: int) -> int:
    """The round-to-nearest term of an arithmetic right shift (none for
    a zero shift, which does not round)."""
    return 1 << (shift - 1) if shift else 0


def _stage_cycle_line(
    stage: StagePlan, backend: ComputeBackend, code
) -> "tuple[int, int]":
    """Per-image cycle line ``(per_pixel, fixed)`` of one whole stage:
    one :meth:`~ComputeBackend.cycle_line` call on the stage's
    tile-order (G, K, C, R, S) weights, which sums the groups' lines,
    at the stage's own configuration (so mixed profiles account each
    stage at its own precision and backend)."""
    return backend.cycle_line(
        stage.scheduled_weights(), stage.config, code
    )


def _extended_rows(images: np.ndarray, last: np.ndarray) -> int:
    """The token rows of ``images`` already computed for the ``last``
    input batch: all of them when ``images`` strictly extends it (same
    batch size, channels and width, more tokens, equal earlier rows),
    else none."""
    rows = last.shape[2]
    if (
        images.shape[2] <= rows
        or images.shape[:2] != last.shape[:2]
        or images.shape[3] != last.shape[3]
    ):
        return 0
    return rows if np.array_equal(images[:, :, :rows], last) else 0


def fit_channels(
    tensor: np.ndarray, target: int, axis: int
) -> np.ndarray:
    """Tile or slice the channel axis to the declared input width
    (branch-seam adapter: concats/splits executed sequentially)."""
    have = tensor.shape[axis]
    if have == target:
        return tensor
    index = [slice(None)] * tensor.ndim
    if have > target:
        index[axis] = slice(0, target)
        return tensor[tuple(index)]
    repeats = -(-target // have)
    tiled = np.concatenate([tensor] * repeats, axis=axis)
    index[axis] = slice(0, target)
    return tiled[tuple(index)]


def fit_spatial(
    tensor: np.ndarray, target_hw: tuple, first_axis: int
) -> np.ndarray:
    """Corner-crop or zero-pad H/W to the declared input size."""
    for offset, target in enumerate(target_hw):
        axis = first_axis + offset
        have = tensor.shape[axis]
        if have > target:
            index = [slice(None)] * tensor.ndim
            index[axis] = slice(0, target)
            tensor = tensor[tuple(index)]
        elif have < target:
            pad = [(0, 0)] * tensor.ndim
            pad[axis] = (0, target - have)
            tensor = np.pad(tensor, pad, mode="constant")
    return tensor


class BatchExecutor:
    """Execute (B, C, H, W) batches through one compiled network.

    Each conv stage runs as an exact float GEMM on BLAS (im2col plus
    one matmul over groups; 1x1 stages skip im2col, depthwise stages
    multiply-accumulate per tap) into shared scratch buffers, then one
    float64 SDP epilogue (bias, requantization, activation, folded
    residual and saturation; see :class:`_SdpEpilogue`) straight over
    those float psums; cycles come from each stage's cycle line.  The
    float dtype is chosen per stage from a worst-case psum bound when
    the executor is built (see :class:`_FusedStage`), so psums are
    exact integers, and the epilogue's own bound keeps every float64
    step of the requantization exact.

    On a token-independent program every output row depends only on
    its own input row, so the executor keeps private int64 copies of
    its last input batch and output.  A batch with the same batch
    size, channels and width, more tokens, and its earlier rows equal
    to the last batch runs the stage loop on the new rows only and is
    stitched to the cached output rows; each stage's cycles still come
    from its cycle line at the full token count, so outputs, cycles
    and stage records equal a full recompute.  Any other batch
    (shorter, equal, edited, re-batched) and every batch of a CNN runs
    in full, and a failed batch leaves nothing to reuse.

    Outputs and cycles (total and
    per stage) are pinned bit-identical to the per-image run through
    the real cores on every backend and precision, the psums stage by
    stage to the int64 golden convolution, and the epilogue to
    :meth:`~repro.nvdla.sdp.Sdp.apply_many` on full-range and
    near-tie psums, in ``tests/runtime/test_fused.py``.

    Args:
        net: the compiled program.
        engine: which compute backend(s) to account cycles on — None
            uses the per-stage backends recorded at lowering, a
            registered name (``"binary"``, ``"tempus"``, ``"tugemm"``,
            ``"tubgemm"``) runs every stage on that backend, and a
            :class:`~repro.runtime.backends.BackendProfile` (or
            ``"first/interior/last"`` spec) mixes backends per stage.
            Outputs are backend-independent (every backend computes the
            exact integer convolution); only cycle accounting differs.

    Raises:
        DataflowError: a stage's psum bound or SDP epilogue bound
            reaches 2**53, where float64 is no longer exact.
    """

    def __init__(
        self,
        net: CompiledNetwork,
        engine: "str | None" = None,
    ) -> None:
        self.net = net
        self.stage_backends: "tuple[ComputeBackend, ...]" = \
            resolve_stage_backends(net, engine)
        if engine is None:
            names = {backend.name for backend in self.stage_backends}
            self.engine = names.pop() if len(names) == 1 else "mixed"
        else:
            self.engine = backend_profile(engine).describe()
        # One float-GEMM plan and SDP epilogue per stage, built (and
        # their exactness bounds checked) here, so an unrepresentable
        # stage fails at construction, never mid-stream.  Beside them,
        # the stage's cycle line on its resolved backend (engine=
        # overrides included), evaluated per batch at the actual
        # output-pixel count.
        # Scratch is one grow-only flat buffer per (role, dtype),
        # shared by every stage (see _scratch_buf).
        self._fused_stages: "tuple[_FusedStage, ...]" = tuple(
            _FusedStage(stage) for stage in net.stages
        )
        self._cycle_lines: "tuple[tuple[int, int], ...]" = tuple(
            _stage_cycle_line(stage, backend, net.code)
            for stage, backend in zip(net.stages, self.stage_backends)
        )
        self._scratch: "dict[tuple, np.ndarray]" = {}
        # (input, output) of the last batch, int64 copies no caller
        # holds, kept only on token-independent programs.
        self._token_independent = net.token_independent
        self._last: "tuple[np.ndarray, np.ndarray] | None" = None

    # ------------------------------------------------------------------
    def run_batch(
        self, images: np.ndarray
    ) -> tuple[np.ndarray, tuple, int]:
        """One vectorized forward pass.

        On a token-independent program, a batch that strictly
        extends the last one along the token axis runs only its new
        rows (see the class docstring); the result is the same.

        Args:
            images: (B, C, H, W) integer batch of the expected shape.
                Its values must lie inside the network input precision
                — the one range check the conv kernel's exactness
                bound needs, since every later stage reads SDP-clipped
                activations.  Rows reused from the last batch were
                checked then, so only the new rows are checked.

        Returns:
            (output, stage_records, conv_cycles) — the stage records
            carry batch-total cycles, matching the
            :class:`~repro.runtime.runner.NetworkResult` contract.

        Raises:
            DataflowError: the batch is not 4-D, or a value lies
                outside the input precision.
        """
        images = np.asarray(images)
        if images.ndim != 4:
            raise DataflowError(
                f"{self.net.name}: expected a (B, C, H, W) batch, got "
                f"shape {images.shape}"
            )
        # Taken before anything can raise: a failed batch leaves
        # nothing to reuse.
        last, self._last = self._last, None
        cached = 0 if last is None else _extended_rows(images, last[0])
        try:
            fresh = self.net.precision.check_array(images[:, :, cached:])
        except PrecisionError as error:
            raise DataflowError(
                f"{self.net.name}: input batch rejected: {error}"
            ) from None
        records: list[StageResult] = []
        current = fresh
        total_cycles = 0
        # Folded-residual state: stage outputs a later stage adds to
        # its own requantized output (key -1 = the model input after
        # the first stage's seam adapters).  Stage outputs are fresh
        # arrays, so keeping references is safe across scratch reuse.
        saved: dict[int, np.ndarray] = {}
        save_input = self.net.needs_input_saved
        for index, stage in enumerate(self.net.stages):
            current = self._fit_batch(stage, current, records)
            if index == 0 and save_input:
                saved[-1] = np.asarray(current, dtype=np.int64)
            residual = (
                saved[stage.residual_from]
                if stage.residual_from is not None
                else None
            )
            current = self._conv_fused(index, stage, current, residual)
            if stage.save_output:
                saved[index] = current
            # The stage's cycle line at the actual output-pixel count
            # (the compiled geometry except on dynamic token-axis
            # stages), counting the reused rows.
            batch_size, kernels, rows, width = current.shape
            rows += cached
            per_pixel, fixed = self._cycle_lines[index]
            cycles = (per_pixel * rows * width + fixed) * batch_size
            total_cycles += cycles
            records.append(
                StageResult(
                    name=stage.name,
                    kind="conv",
                    output_shape=(batch_size, kernels, rows, width),
                    conv_cycles=cycles,
                )
            )
        if self._token_independent:
            if cached:
                fresh = np.concatenate((last[0], fresh), axis=2)
                current = np.concatenate((last[1], current), axis=2)
            else:
                # check_array passes an int64 batch through as a view:
                # copy it so the caller cannot edit the cached rows.
                fresh = fresh.copy()
            self._last = (fresh, current)
            current = current.copy()
        return current, tuple(records), total_cycles

    def run_job(self, images: np.ndarray) -> dict:
        """Worker entry point: run a batch and report a self-contained
        record (output, cycles, per-stage cycles) that can cross a
        process boundary."""
        output, records, cycles = self.run_batch(images)
        return {
            "output": output,
            "conv_cycles": cycles,
            "stage_cycles": tuple(
                record.conv_cycles for record in records
            ),
            "stage_meta": tuple(
                (record.name, record.kind, record.output_shape)
                for record in records
            ),
        }

    # --- seam adapters (batched) --------------------------------------
    def _fit_batch(
        self,
        stage: StagePlan,
        batch: np.ndarray,
        records: list,
    ) -> np.ndarray:
        batch = fit_channels(batch, stage.fit_channels, axis=1)
        if stage.pool is not None:
            batch = Pdp(stage.pool).apply_many(batch)
            records.append(
                StageResult(
                    name=f"{stage.name}.pool",
                    kind="pool",
                    output_shape=tuple(batch.shape),
                )
            )
        if stage.dynamic_hw:
            # Dynamic stages (linear ops) accept whatever token count
            # the stream presents; pinning to the nominal compile-time
            # length would truncate or zero-pad the sequence.
            return batch
        return fit_spatial(batch, stage.fit_hw, first_axis=2)

    # --- conv execution -----------------------------------------------
    def _scratch_buf(
        self, role: str, shape: tuple, dtype=np.int64
    ) -> np.ndarray:
        """A scratch view of ``shape`` for one buffer role.

        One grow-only flat buffer per (role, dtype) is shared by every
        stage and viewed at the requesting stage's shape, so scratch
        memory is, per role, the largest single stage's need rather
        than the sum over stages.  The view holds whatever the last
        stage left there: callers overwrite everything they read
        (padded inputs re-zero their borders on every call)."""
        size = math.prod(shape)
        key = (role, dtype)
        buffer = self._scratch.get(key)
        if buffer is None or buffer.size < size:
            buffer = np.empty(size, dtype=dtype)
            self._scratch[key] = buffer
        return buffer[:size].reshape(shape)

    def _conv_fused(
        self,
        index: int,
        stage: StagePlan,
        batch: np.ndarray,
        residual: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """One conv stage over the whole batch: the exact float-GEMM
        psums of :meth:`_fused_psums`, then the stage's
        :class:`_SdpEpilogue` over them in one float64 scratch buffer,
        with the folded residual (if any) added in the same pass.
        The output is a fresh array, so callers never alias scratch
        that the next batch will overwrite."""
        psums = self._fused_psums(index, stage, batch)
        if residual is not None and residual.shape != psums.shape:
            raise DataflowError(
                f"{stage.name}: folded residual shape "
                f"{residual.shape} does not match stage output "
                f"{psums.shape}"
            )
        buffer = self._scratch_buf("epilogue", psums.shape, np.float64)
        epilogue = self._fused_stages[index].epilogue
        return epilogue(psums, buffer, residual)

    def _fused_psums(
        self, index: int, stage: StagePlan, batch: np.ndarray
    ) -> np.ndarray:
        """Pre-SDP psums of one stage as a (B, K, OH, OW) array in the
        stage plan's float dtype (a scratch view) — exact integers,
        because the plan's bound keeps every partial sum exactly
        representable."""
        plan = self._fused_stages[index]
        layer = stage.layer
        stride = layer.stride
        pad_h, pad_w = layer.padding_h, layer.padding_w
        kernel_h, kernel_w = layer.kernel_h, layer.kernel_w
        batch_size, channels, height, width = batch.shape
        out_height = (height + 2 * pad_h - kernel_h) // stride + 1
        out_width = (width + 2 * pad_w - kernel_w) // stride + 1
        out_shape = (batch_size, channels, out_height, out_width)
        if plan.kind == "pointwise":
            # The (strided) input is its own im2col matrix.
            operand = self._scratch_buf("input", out_shape, plan.dtype)
            operand[...] = batch[:, :, ::stride, ::stride]
        else:
            source = self._scratch_buf(
                "input",
                (batch_size, channels,
                 height + 2 * pad_h, width + 2 * pad_w),
                plan.dtype,
            )
            # Another stage may have left data in the pad borders.
            if pad_h:
                source[:, :, :pad_h] = 0
                source[:, :, -pad_h:] = 0
            if pad_w:
                source[:, :, :, :pad_w] = 0
                source[:, :, :, -pad_w:] = 0
            source[:, :, pad_h : pad_h + height,
                   pad_w : pad_w + width] = batch
            taps = [
                (tap_y, tap_x, source[
                    :,
                    :,
                    tap_y : tap_y + stride * out_height : stride,
                    tap_x : tap_x + stride * out_width : stride,
                ])
                for tap_y in range(kernel_h)
                for tap_x in range(kernel_w)
            ]
        if plan.kind == "depthwise":
            psums = self._scratch_buf("psum", out_shape, plan.dtype)
            partial = self._scratch_buf("partial", out_shape, plan.dtype)
            for tap_y, tap_x, window in taps:
                weight = plan.weights[tap_y, tap_x, :, None, None]
                if tap_y == tap_x == 0:
                    np.multiply(window, weight, out=psums)
                else:
                    np.multiply(window, weight, out=partial)
                    psums += partial
        else:
            groups, kernels_per_group = plan.weights.shape[:2]
            if plan.kind == "gemm":
                operand = self._scratch_buf(
                    "columns",
                    (batch_size, groups, channels // groups,
                     kernel_h, kernel_w, out_height, out_width),
                    plan.dtype,
                )
                for tap_y, tap_x, window in taps:
                    operand[:, :, :, tap_y, tap_x] = window.reshape(
                        batch_size, groups, -1, out_height, out_width
                    )
            pixels = out_height * out_width
            psums = self._scratch_buf(
                "psum",
                (batch_size, groups, kernels_per_group, pixels),
                plan.dtype,
            )
            np.matmul(
                plan.weights,
                operand.reshape(batch_size, groups, -1, pixels),
                out=psums,
            )
        return psums.reshape(
            batch_size, layer.out_channels, out_height, out_width
        )
