"""Shared batched execution engine for compiled networks.

:class:`BatchExecutor` is the single implementation of the vectorized
forward pass over a :class:`~repro.runtime.lowering.CompiledNetwork`:
seam adapters, PDP pools, each conv stage as an exact float GEMM on
BLAS, one float64 SDP epilogue over its psums and the analytic cycle
accounting — per stage, on the stage's registered compute backend
(:mod:`repro.runtime.backends`).  Like the NVDLA dataflow, which
streams feature cubes as 1x1xn atoms along the channel axis, the
kernels keep activations channels-last, (B, H, W, C), between stages,
and narrow: a hidden stage hands the next one int32 codes (its output is
SDP-clipped to 8 bits or fewer), and only the network's last stage casts
to int64.  The API around them speaks (B, C, H, W).  Both the in-process
:class:`~repro.runtime.runner.NetworkRunner` and the worker processes of
:class:`~repro.serve.ShardedRunner` execute batches through this one
class, which is what makes the sharded serving path bit-identical (in
outputs *and* cycles) to single-process inference: there is exactly one
batched code path, and its oracle is the per-image run through the real
convolution cores
(:func:`~repro.runtime.runner.run_per_image`).

The hardware order is CMAC, then SDP, then PDP, and the cycles charged
follow it.  The host may run exact work in another order: where a max
pool follows a stage whose SDP is monotone, the host max-pools the
stage's exact psums and requantizes the pooled ones (psums, PDP max,
SDP), which equals SDP then PDP bit for bit, since a non-decreasing map
commutes with a max, and requantizes a quarter of the values after a
2x2 pool (see :class:`_SdpEpilogue` and :meth:`_Step.pool_psums`).

Beyond its compiled program the executor holds derived, reusable
state — per-stage GEMM plans with their SDP epilogue constants,
per-stage cycle lines, grow-only scratch buffers and, for the last
batch's input shape, a *plan*: each stage's seam action, views into
the shared scratch, matmul weights, per-channel constants tiled along
the output row, residual wiring and record template, built when the
shape changes and replayed by every batch of that shape after it.  On
a token-independent program
(:attr:`~repro.runtime.lowering.CompiledNetwork.token_independent`) it
also keeps private copies of the input and output rows it has
computed: a batch that strictly extends the last one along the token
axis (autoregressive decode) runs only its new rows, so each decoded
token is computed once.  A CNN executor keeps no reference to any
batch.  A stage's per-image cycles are affine in its output pixels,
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
from numpy.lib.stride_tricks import as_strided

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

#: The integer type hidden stages hand on; every stage's SDP output
#: precision must fit its range.
_HANDOFF = np.iinfo(np.int32)

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

    Activations are channels-last, (B, H, W, C), so the weight layout
    puts the channel axis where the columns have it, for the stage's
    kernel shape:

    * ``"depthwise"`` (one channel per group, one kernel per group):
      ``(R, S, 1, 1, 1, C)`` tap weights, which a plan tiles along the
      output row (see :class:`_Step`) and broadcasts over the
      ``(R, S, B, OH, OW, C)`` tap windows in one multiply;
    * ``"pointwise"`` (1x1 kernels, no padding): ``(G, Cg, Kg)`` for one
      matmul per group straight over the (strided) ``(B*OH*OW, G, Cg)``
      input;
    * ``"stem"`` (one group of one input channel, as the zoo's stems
      are): ``(1, R*S, K)`` against taps-outer columns laid out
      ``(R*S, B*OH*OW)``, whose transposed view BLAS multiplies with no
      copy.  The im2col layout would copy runs of S elements (one tap
      row of one channel); taps outermost, the copy runs a whole output
      row;
    * ``"gemm"`` (everything else): ``(G, R*S*Cg, Kg)`` against im2col
      columns laid out ``(B*OH*OW, G, R*S*Cg)``.

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
            weights = weights.transpose(1, 2, 0)[:, :, None, None, None]
        elif kernel_h == kernel_w == 1 and not (
            layer.padding_h or layer.padding_w
        ):
            self.kind = "pointwise"
            weights = weights.reshape(
                groups, kernels_per_group, channels_per_group
            ).transpose(0, 2, 1)
        elif groups == channels_per_group == 1:
            self.kind = "stem"
            weights = weights.reshape(kernels_per_group, -1).T[None]
        else:
            self.kind = "gemm"
            weights = weights.transpose(0, 3, 4, 2, 1).reshape(
                groups, -1, kernels_per_group
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
    again, in the same buffer; one integer cast at the end makes the
    result (a fresh array) and does the final truncation: to int32 on a
    hidden stage — exact, because every stage's output precision is
    checked here to fit int32 — and to int64 on the network's last.
    Psums, buffer and residual are channels-last.  The one per-kernel
    constant a pass adds (the bias on prelu, else the offset) is
    :attr:`addend`; a plan passes it tiled along the output row, as
    :meth:`rows` builds it, so the add runs one contiguous inner loop
    of OW * K elements instead of K.

    Every intermediate is an integer multiple of ``2**-s`` whose
    numerator is at most ``(psum_bound + max|bias|) * m + 2**(s-1)``
    (and the analogous terms of the prelu branch), so below 2**53 — the
    bound checked here, when the executor is built — every float64 step
    is exact and the epilogue agrees with the integer SDP bit for bit.
    The product is taken in float64 whatever the psum dtype: a float32
    psum times a Python float stays float32 under NumPy 2's promotion
    rules, and would round.

    Per kernel, the requantization is :attr:`monotone` (non-decreasing
    in the psum) unless a prelu's negative-side multiplier is negative:
    the requant multiplier is at least 1, and the bias add, the relu,
    round-half-away and the clip are all non-decreasing.  A monotone
    map commutes with a max, so ``maxpool(SDP(p)) == SDP(maxpool(p))``
    exactly, and a plan may run a max pool that follows the stage on
    its psums, before the epilogue (see :class:`_Step`).  The hardware
    order, and the cycles charged, stay SDP then PDP.

    Raises:
        DataflowError: the bound reaches 2**53, or the output precision
            does not fit int32 (the message names the stage).
    """

    __slots__ = ("activation", "scale", "addend", "shift",
                 "prelu_scale", "prelu_shift", "low", "out_low", "high",
                 "bound", "monotone")

    def __init__(self, stage: StagePlan, psum_bound: int) -> None:
        config = stage.sdp
        self.activation = config.activation
        self.shift = config.shift
        self.monotone = (
            config.activation != "prelu" or config.prelu_multiplier >= 0
        )
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
        spec = config.out_precision
        if spec.min_value < _HANDOFF.min or spec.max_value > _HANDOFF.max:
            raise DataflowError(
                f"{stage.name}: output precision {spec.name} does not "
                f"fit the int32 stage handoff"
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
                value_bound * abs(config.prelu_multiplier)
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
        if self.bound >= 1 << 53:
            raise DataflowError(
                f"{stage.name}: SDP epilogue bound {self.bound} >= "
                f"2**53: not exact in float64"
            )
        self.addend = (
            bias.astype(np.float64)
            if self.activation == "prelu"
            else np.ldexp(numerators.astype(np.float64), -config.shift)
        )
        self.out_low = float(spec.min_value)
        self.high = float(spec.max_value)
        self.low = (
            max(0.0, self.out_low)
            if self.activation == "relu"
            else self.out_low
        )

    def rows(self, width: int) -> np.ndarray:
        """:attr:`addend` tiled along an output row of ``width`` pixels:
        a contiguous (width, K) float64 array."""
        return np.tile(self.addend, (width, 1))

    def __call__(
        self,
        psums: np.ndarray,
        out: np.ndarray,
        addend: np.ndarray,
        residual: "np.ndarray | None" = None,
        final: bool = False,
    ) -> np.ndarray:
        """Requantize channels-last (B, OH, OW, K) float ``psums``,
        working in ``out`` (float64, the same shape), with ``addend``
        the (OW, K) tiles of :meth:`rows` and a ``residual`` shaped
        like ``out`` if given.  ``psums`` is overwritten: it holds the
        rounding term.

        Returns a fresh (B, K, OH, OW) array: int32 and channels-last
        in memory on a hidden stage, int64 and C-contiguous on the
        ``final`` one — the cast writes either in one pass."""
        if self.activation == "prelu":
            np.add(psums, addend, dtype=np.float64, out=out)
            negative = out < 0
            np.multiply(out, self.prelu_scale, out=out, where=negative)
            if self.prelu_shift:
                # Round half away from zero on the negative side, whose
                # products all take the prelu multiplier's sign:
                # ceil(y - 1/2) where y <= 0, floor(y + 1/2) where y > 0.
                if self.monotone:
                    np.subtract(out, 0.5, out=out, where=negative)
                    np.ceil(out, out=out, where=negative)
                else:
                    np.add(out, 0.5, out=out, where=negative)
                    np.floor(out, out=out, where=negative)
            out *= self.scale
        else:
            np.multiply(psums, self.scale, dtype=np.float64, out=out)
            out += addend
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
        out = out.transpose(0, 3, 1, 2)
        if final:
            return out.astype(np.int64, order="C")
        return out.astype(_HANDOFF.dtype, order="K")


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


def _with_rows(rows: np.ndarray, count: int, total: int) -> np.ndarray:
    """``rows`` (a (B, C, capacity, W) buffer whose first ``count``
    token rows are in use), or a copy of those rows in a buffer of at
    least double the capacity when ``total`` rows do not fit."""
    capacity = rows.shape[2]
    if total <= capacity:
        return rows
    batch_size, channels, _, width = rows.shape
    grown = np.empty(
        (batch_size, channels, max(total, 2 * capacity), width),
        dtype=rows.dtype,
    )
    grown[:, :, :count] = rows[:, :, :count]
    return grown


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


class _Step:
    """One conv stage of a plan, for the one input shape the stage
    receives in a batch of the plan's shape.

    Its interface speaks the API's (B, C, H, W) shapes; inside, the
    stage works channels-last, (B, H, W, C), so every copy and product
    runs along the channel axis.  Built in two phases.  The constructor
    derives the geometry — output shape, the scratch each buffer role
    needs and, as index tuples, the seam — with no memory touched;
    :meth:`bind` then takes views of the executor's shared scratch, so
    a replay only copies in, multiplies and requantizes:

    * the seam reads the stage input channels-last (through a
      transposed view) and writes it straight into the operand (1x1
      kernels) or the padded (B, H, W, C) source: channels tiled or
      sliced to the declared width, H/W cropped or zero-padded to the
      declared size, stride applied.  The ``zeros`` views — the conv's
      pad borders and a zero-padded seam's region — are re-zeroed on
      every replay, since another stage may have left data there;
    * ``windows`` is every R x S tap window of the source as one
      strided view, laid out like the ``columns`` it fills:
      (B, OH, OW, G, R, S, Cg) for a gemm stage, which one copy turns
      into im2col columns; (R, S, B, OH, OW) for a stem, whose copy
      runs a whole output row per tap; and (R, S, B, OH, OW, C) for a
      depthwise stage, which one multiply by the tap weights — tiled
      along the output row, (R, S, 1, 1, OW, C), so the multiply's
      inner loop runs a whole row rather than C elements — turns into
      products that one add-reduce over the taps sums into psums;
    * ``matmuls`` holds, per group, the 2-D views one BLAS call
      multiplies over the whole batch: the group's columns (the
      source, for a pointwise stage; the transposed taps-outer
      columns, for a stem), its weights and its psums,
      ``(B*OH*OW, X) @ (X, Kg) -> (B*OH*OW, Kg)``.  A depthwise stage
      has none; its ``operand`` and ``product`` are the taps-by-pixels
      products and the flat psums the add-reduce writes;
    * ``psum_pool`` is the max pool of the next stage when the plan
      runs it here, on the psums (see :meth:`pool_psums`); the stage
      then hands on its pooled output, ``hands_on`` (B, K, PH, PW),
      instead of ``out_shape``;
    * ``buffer`` is the float64 epilogue buffer and ``addend`` the SDP
      epilogue's per-kernel constant tiled along a row, both at the
      (pooled, if the psums are pooled) width it requantizes.  The
      weights and the SDP epilogue come from the stage's
      :class:`_FusedStage`;
      ``final`` marks the network's last stage, whose output is the
      API's C-contiguous (B, K, OH, OW) int64 array; every other stage
      hands on a fresh int32 array, channels-last in memory and seen
      as (B, K, OH, OW).

    A network plan adds what :meth:`BatchExecutor.run_batch` needs
    around the conv: the prebuilt PDP (unless the previous stage pools
    its psums) and its record, whether the
    fitted model input is saved, the residual source and save flag,
    and the record template with the cycle line folded to the batch
    (``per_row`` cycles per output row plus ``fixed``).
    """

    __slots__ = (
        "index", "stage", "in_shape", "fitted_shape", "out_shape",
        "kind", "weights", "epilogue", "addend", "final", "needs",
        "zero_index", "copy_index",
        "zeros", "copies", "windows", "columns", "operand", "product",
        "matmuls", "psums", "buffer", "psum_pool", "hands_on",
        "pool", "keep", "pool_record", "save_input", "residual_from",
        "save_output", "per_row", "fixed",
    )

    def __init__(
        self,
        index: int,
        stage: StagePlan,
        fused: _FusedStage,
        in_shape: tuple,
        final: bool,
    ) -> None:
        self.index = index
        self.stage = stage
        self.in_shape = in_shape
        self.kind = fused.kind
        self.epilogue = fused.epilogue
        self.final = final
        self.pool = self.pool_record = self.psum_pool = None
        self.save_input = False
        self.residual_from = stage.residual_from
        self.save_output = stage.save_output
        layer = stage.layer
        stride = layer.stride
        pad_h, pad_w = layer.padding_h, layer.padding_w
        batch_size, have, have_h, have_w = in_shape
        channels = stage.fit_channels
        # Dynamic stages (linear ops) accept whatever token count the
        # stream presents; pinning to the nominal compile-time length
        # would truncate or zero-pad the sequence.
        height, width = (
            (have_h, have_w) if stage.dynamic_hw else stage.fit_hw
        )
        self.fitted_shape = (batch_size, channels, height, width)
        out_height = (height + 2 * pad_h - layer.kernel_h) // stride + 1
        out_width = (width + 2 * pad_w - layer.kernel_w) // stride + 1
        self.out_shape = self.hands_on = (
            batch_size, layer.out_channels, out_height, out_width
        )
        self.addend = self.epilogue.rows(out_width)
        self.weights = (
            np.tile(fused.weights, (1, 1, 1, 1, out_width, 1))
            if self.kind == "depthwise"
            else fused.weights
        )
        # The seam: the input's first ``valid`` rows/columns land in
        # the fitted tensor (the rest is a crop or zero padding), in
        # channel chunks that tile a narrow input.
        valid_h, valid_w = min(have_h, height), min(have_w, width)
        chunks = [
            (start, min(start + have, channels))
            for start in range(0, channels, have)
        ]
        everything = slice(None)
        # A pointwise stage reads every stride-th row and column (the
        # strided fitted input is its own im2col matrix); the others
        # copy the fitted input whole and stride their tap windows.
        pitch = stride if self.kind == "pointwise" else 1

        def read(count: int):
            """The channels-last input region one chunk of ``count``
            channels reads."""
            if (count, valid_h, valid_w, pitch) == (have, have_h, have_w, 1):
                return Ellipsis
            return (everything, slice(0, valid_h, pitch),
                    slice(0, valid_w, pitch), slice(0, count))

        if self.kind == "pointwise":
            source_shape = (batch_size, out_height, out_width, channels)
            rows = (valid_h - 1) // stride + 1
            cols = (valid_w - 1) // stride + 1
            self.copy_index = [
                ((everything, slice(0, rows), slice(0, cols),
                  slice(start, stop)), read(stop - start))
                for start, stop in chunks
            ]
            zeros = [
                (rows < out_height, (everything, slice(rows, None))),
                (cols < out_width,
                 (everything, slice(0, rows), slice(cols, None))),
            ]
        else:
            source_shape = (
                batch_size, height + 2 * pad_h, width + 2 * pad_w,
                channels,
            )
            inner_h = slice(pad_h, pad_h + valid_h)
            self.copy_index = [
                ((everything, inner_h, slice(pad_w, pad_w + valid_w),
                  slice(start, stop)), read(stop - start))
                for start, stop in chunks
            ]
            zeros = [
                (pad_h, (everything, slice(0, pad_h))),
                (valid_h < height + pad_h,
                 (everything, slice(pad_h + valid_h, None))),
                (pad_w, (everything, inner_h, slice(0, pad_w))),
                (valid_w < width + pad_w,
                 (everything, inner_h, slice(pad_w + valid_w, None))),
            ]
        self.zero_index = [region for needed, region in zeros if needed]
        dtype = self.weights.dtype
        self.needs = {("input", dtype): source_shape}
        if self.kind == "depthwise":
            self.needs[("columns", dtype)] = (
                layer.kernel_h, layer.kernel_w, batch_size, out_height,
                out_width, channels,
            )
        elif self.kind == "stem":
            self.needs[("columns", dtype)] = (
                layer.kernel_h, layer.kernel_w, batch_size, out_height,
                out_width,
            )
        elif self.kind == "gemm":
            groups = self.weights.shape[0]
            self.needs[("columns", dtype)] = (
                batch_size, out_height, out_width, groups,
                layer.kernel_h, layer.kernel_w, channels // groups,
            )
        psum_shape = (
            batch_size, out_height, out_width, layer.out_channels
        )
        self.needs[("psum", dtype)] = psum_shape
        self.needs[("epilogue", np.dtype(np.float64))] = psum_shape

    def pool_psums(self, pool: Pdp) -> bool:
        """Run ``pool``, the max pool of the next stage's input, on this
        stage's exact psums, before the SDP epilogue, if that is exact:
        the pool is a max pool whose every window holds an output pixel
        (padding < kernel), and this stage's epilogue is monotone (see
        :class:`_SdpEpilogue`), adds no folded residual and its output
        is not saved for a later one — a max commutes with the SDP, not
        with a residual add, and a saved output must be the unpooled
        one.  The epilogue then runs on the pooled psums, in a buffer
        and with row constants at the pooled width, and the stage hands
        on ``hands_on``.  Returns whether the pool moved here."""
        config = pool.config
        if (
            config.mode != "max"
            or config.padding >= config.kernel
            or not self.epilogue.monotone
            or self.residual_from is not None
            or self.save_output
        ):
            return False
        batch_size, kernels, height, width = self.out_shape
        pooled = pool.output_size(height, width)
        self.psum_pool = pool
        self.hands_on = (batch_size, kernels) + pooled
        self.addend = self.epilogue.rows(pooled[1])
        self.needs[("epilogue", np.dtype(np.float64))] = (
            (batch_size,) + pooled + (kernels,)
        )
        return True

    def bind(self, scratch: dict) -> None:
        """Take this step's views of the executor's scratch, one flat
        buffer per (role, dtype) at least as large as :attr:`needs`."""
        views = {
            key: scratch[key][:math.prod(shape)].reshape(shape)
            for key, shape in self.needs.items()
        }
        dtype = self.weights.dtype
        source = views[("input", dtype)]
        self.zeros = tuple(source[index] for index in self.zero_index)
        self.copies = tuple(
            (source[target], index) for target, index in self.copy_index
        )
        self.psums = views[("psum", dtype)]
        self.buffer = views[("epilogue", np.dtype(np.float64))]
        self.windows = self.columns = self.operand = self.product = None
        self.matmuls = ()
        operand = source
        if self.kind != "pointwise":
            self.columns = operand = views[("columns", dtype)]
            self.windows = self._windows(source)
        if self.kind == "depthwise":
            taps = self.columns.shape[0] * self.columns.shape[1]
            self.operand = self.columns.reshape(taps, -1)
            self.product = self.psums.reshape(-1)
            return
        pixels = math.prod(self.psums.shape[:3])
        if self.kind == "stem":
            self.matmuls = ((
                self.columns.reshape(-1, pixels).T, self.weights[0],
                self.psums.reshape(pixels, -1),
            ),)
            return
        groups = self.weights.shape[0]
        operand = operand.reshape(pixels, groups, -1)
        product = self.psums.reshape(pixels, groups, -1)
        self.matmuls = tuple(
            (operand[:, group], self.weights[group], product[:, group])
            for group in range(groups)
        )

    def _windows(self, source: np.ndarray) -> np.ndarray:
        """Every tap window of the padded (B, H, W, C) ``source`` as one
        read-only strided view, in the layout of :attr:`columns`."""
        stride = self.stage.layer.stride
        batch, row, column, channel = source.strides
        if self.kind != "gemm":
            # Taps outermost; a stem's columns have no channel axis.
            strides = (row, column, batch, row * stride,
                       column * stride, channel)[:self.columns.ndim]
        else:
            per_group = self.columns.shape[-1]
            strides = (batch, row * stride, column * stride,
                       per_group * channel, row, column, channel)
        return as_strided(
            source, self.columns.shape, strides, writeable=False
        )

    def run(self, batch: np.ndarray) -> np.ndarray:
        """The stage's pre-SDP psums of the (B, C, H, W) ``batch`` as a
        channels-last (B, OH, OW, K) scratch view in the weights' float
        dtype."""
        source = batch.transpose(0, 2, 3, 1)
        for view in self.zeros:
            view.fill(0)
        for view, index in self.copies:
            view[...] = source[index]
        if self.kind == "depthwise":
            np.multiply(self.windows, self.weights, out=self.columns)
            np.add.reduce(self.operand, axis=0, out=self.product)
            return self.psums
        if self.windows is not None:
            self.columns[...] = self.windows
        for operand, weights, product in self.matmuls:
            np.matmul(operand, weights, out=product)
        return self.psums

    def fit(self, batch: np.ndarray) -> np.ndarray:
        """``batch`` fitted to the stage's declared input, as int64 (the
        model input a folded residual reads)."""
        if batch.shape == self.fitted_shape:
            return np.asarray(batch, dtype=np.int64)
        batch = fit_channels(batch, self.fitted_shape[1], axis=1)
        return np.asarray(
            fit_spatial(batch, self.fitted_shape[2:], first_axis=2),
            dtype=np.int64,
        )


class BatchExecutor:
    """Execute (B, C, H, W) batches through one compiled network.

    Each conv stage runs as an exact float GEMM on BLAS over
    channels-last activations, into shared scratch buffers: one copy
    of all tap windows into im2col columns, then one matmul per group
    over the whole batch, ``(B*OH*OW, R*S*Cg) @ (R*S*Cg, Kg)`` (1x1
    stages multiply their strided input directly; one-channel stems
    copy their windows taps-outer and multiply the transposed columns;
    depthwise stages multiply all tap windows by their weights at once
    and add-reduce over the taps).  One float64 SDP epilogue (bias,
    requantization, activation, folded residual and saturation; see
    :class:`_SdpEpilogue`) runs straight over those float psums; cycles
    come from each stage's cycle line.  A max pool after a stage with a
    monotone SDP runs on that stage's psums, before the epilogue (exact;
    see :meth:`_Step.pool_psums`); the pool's record keeps its place.
    Stage outputs stay int32 and channels-last in memory, seen as
    (B, K, OH, OW), through the PDP max pool and the folded residual:
    the next stage's seam reads them, and the network input, through a
    transposed view, and the final stage casts into a C-contiguous
    (B, K, OH, OW) int64 array, so the API sees (B, C, H, W) int64
    throughout.  The float dtype is chosen per stage from a worst-case
    psum bound when the executor is built (see :class:`_FusedStage`),
    so psums are exact integers, and the epilogue's own bound keeps
    every float64 step of the requantization exact.

    Every batch runs by replaying the plan for the shape of the rows it
    computes (see :class:`_Step`): one :class:`_Step` per stage, its
    views all into the shared scratch.  The executor keeps one plan,
    the last batch's, and builds a new one when the shape changes: on
    perfbench's three workloads one shape covers 98.9–99.97% of each
    executor's batches.  When a scratch buffer has to grow, the kept
    plan is dropped, so no plan holds a view of a replaced buffer and
    scratch stays, per role, the largest single stage's need.

    On a token-independent program every output row depends only on
    its own input row, so the executor keeps private int64 copies of
    the input and output rows it has computed, in buffers whose token
    capacity doubles as a decode grows.  A batch with the same batch
    size, channels and width, more tokens, and its earlier rows equal
    to the kept ones runs the stage loop on the new rows only, which
    are appended in place; each stage's cycles still come from its
    cycle line at the full token count, so outputs, cycles and stage
    records equal a full recompute.  Any other batch (shorter, equal,
    edited, re-batched) and every batch of a CNN runs in full, and a
    failed batch leaves nothing to reuse.

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
            reaches 2**53, where float64 is no longer exact, or its
            output precision does not fit the int32 handoff.
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
        self._fused_stages: "tuple[_FusedStage, ...]" = tuple(
            _FusedStage(stage) for stage in net.stages
        )
        self._cycle_lines: "tuple[tuple[int, int], ...]" = tuple(
            _stage_cycle_line(stage, backend, net.code)
            for stage, backend in zip(net.stages, self.stage_backends)
        )
        # Scratch is one grow-only flat buffer per (role, dtype),
        # shared by every stage; the kept plan (for input shape
        # _plan_shape) and the one-stage plan of the last stage run on
        # its own (_spare) hold only views of it.
        self._scratch: "dict[tuple, np.ndarray]" = {}
        self._plan_shape: "tuple | None" = None
        self._plan: "tuple[_Step, ...]" = ()
        self._spare: "_Step | None" = None
        # (inputs, outputs, rows): int64 buffers no caller holds, whose
        # first ``rows`` token rows are the computed ones; kept only on
        # token-independent programs.
        self._token_independent = net.token_independent
        self._last: "tuple[np.ndarray, np.ndarray, int] | None" = None

    # ------------------------------------------------------------------
    def run_batch(
        self, images: np.ndarray
    ) -> tuple[np.ndarray, tuple, int]:
        """One vectorized forward pass: the replay of the plan for the
        shape of the rows it computes.

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
            DataflowError: the batch is not 4-D or is empty, a value
                lies outside the input precision, or a folded residual
                does not match its stage's output shape.
        """
        images = np.asarray(images)
        if images.ndim != 4 or images.shape[0] == 0:
            raise DataflowError(
                f"{self.net.name}: expected a (B, C, H, W) batch with "
                f"B >= 1, got shape {images.shape}"
            )
        # Taken before anything can raise: a failed batch leaves
        # nothing to reuse.
        last, self._last = self._last, None
        cached = 0 if last is None else _extended_rows(
            images, last[0][:, :, :last[2]]
        )
        try:
            fresh = self.net.precision.check_array(images[:, :, cached:])
        except PrecisionError as error:
            raise DataflowError(
                f"{self.net.name}: input batch rejected: {error}"
            ) from None
        plan = self._plan_for(fresh.shape)
        records: list[StageResult] = []
        current = fresh
        total_cycles = 0
        # Folded-residual state: stage outputs a later stage adds to
        # its own requantized output (key -1 = the model input after
        # the first stage's seam adapters).  Stage outputs are fresh
        # arrays, so keeping references is safe across scratch reuse.
        saved: dict[int, np.ndarray] = {}
        for step in plan:
            if step.pool is not None:
                current = step.pool.apply_many(current[:, :step.keep])
            if step.pool_record is not None:
                records.append(step.pool_record)
            if step.save_input:
                saved[-1] = step.fit(current)
            residual = (
                saved[step.residual_from]
                if step.residual_from is not None
                else None
            )
            current = self._conv_fused(
                step.index, step.stage, current, residual
            )
            if step.save_output:
                saved[step.index] = current
            # The stage's cycle line at the actual output-pixel count
            # (the compiled geometry except on dynamic token-axis
            # stages), counting the reused rows.
            batch_size, kernels, rows, width = step.out_shape
            rows += cached
            cycles = step.per_row * rows + step.fixed
            total_cycles += cycles
            records.append(StageResult(
                step.stage.name, "conv", (batch_size, kernels, rows, width),
                cycles,
            ))
        if self._token_independent:
            current = self._keep_rows(last, cached, fresh, current)
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

    def _keep_rows(
        self,
        last: "tuple | None",
        cached: int,
        fresh: np.ndarray,
        output: np.ndarray,
    ) -> np.ndarray:
        """Append a batch's computed rows (its first ``cached`` rows
        were kept from ``last``) to the kept input and output rows, and
        return the caller's own copy of the whole output."""
        total = cached + fresh.shape[2]
        if cached:
            inputs = _with_rows(last[0], cached, total)
            outputs = _with_rows(last[1], cached, total)
        else:
            inputs = np.empty(fresh.shape, dtype=np.int64)
            outputs = np.empty(output.shape, dtype=np.int64)
        inputs[:, :, cached:total] = fresh
        outputs[:, :, cached:total] = output
        self._last = (inputs, outputs, total)
        # A full run's output is already a fresh array no one else
        # holds.
        return outputs[:, :, :total].copy() if cached else output

    # --- plans ----------------------------------------------------------
    def _plan_for(self, shape: tuple) -> "tuple[_Step, ...]":
        """The plan for a (B, C, H, W) batch of ``shape``: the kept
        plan when the last batch had this shape, else a new one, which
        replaces it."""
        if shape != self._plan_shape:
            self._plan = self._build_plan(shape)
            self._plan_shape = shape
        return self._plan

    def _build_plan(self, shape: tuple) -> "tuple[_Step, ...]":
        """One :class:`_Step` per stage, each at the shape its stage
        sees after the previous stage and the PDP pool, with its
        record template, cycle line and residual wiring; the residual
        shapes are checked here, once per plan.  A max pool moves onto
        the previous stage's psums wherever :meth:`_Step.pool_psums`
        finds that exact; it keeps its record, in its place.

        Raises:
            DataflowError: a folded residual's source shape differs
                from its stage's output shape.
        """
        steps: list[_Step] = []
        last = len(self.net.stages) - 1
        for index, (stage, fused) in enumerate(
            zip(self.net.stages, self._fused_stages)
        ):
            pool = None
            if stage.pool is not None:
                pool = Pdp(stage.pool)
                if steps and steps[-1].pool_psums(pool):
                    # The seam slices the channels this stage keeps.
                    shape, pool = steps[-1].hands_on, None
                else:
                    # Pooling is per channel, so pooling the kept
                    # channels and tiling afterwards equals pooling the
                    # tiled input.
                    keep = min(shape[1], stage.fit_channels)
                    shape = (shape[0], keep) \
                        + pool.output_size(*shape[2:])
            step = _Step(index, stage, fused, shape, index == last)
            if pool is not None:
                step.pool, step.keep = pool, keep
            if stage.pool is not None:
                step.pool_record = StageResult(
                    name=f"{stage.name}.pool",
                    kind="pool",
                    output_shape=(shape[0], stage.fit_channels)
                    + shape[2:],
                )
            step.save_input = index == 0 and self.net.needs_input_saved
            if step.residual_from is not None:
                source = (
                    steps[step.residual_from].out_shape
                    if step.residual_from >= 0
                    else (steps[0] if steps else step).fitted_shape
                )
                if source != step.out_shape:
                    raise DataflowError(
                        f"{stage.name}: folded residual shape "
                        f"{source} does not match stage output "
                        f"{step.out_shape}"
                    )
            per_pixel, fixed = self._cycle_lines[index]
            batch_size, _, _, width = step.out_shape
            step.per_row = per_pixel * width * batch_size
            step.fixed = fixed * batch_size
            shape = step.out_shape
            steps.append(step)
        self._bind(steps)
        return tuple(steps)

    def _bind(self, steps: list) -> None:
        """Grow the shared scratch to the steps' largest need per
        (role, dtype), then bind their views.  Growing replaces a
        buffer, so it drops the kept plan and one-stage plan: neither
        may keep a view of the old one."""
        needs: dict = {}
        for step in steps:
            for key, shape in step.needs.items():
                needs[key] = max(needs.get(key, 0), math.prod(shape))
        for key, size in needs.items():
            buffer = self._scratch.get(key)
            if buffer is None or buffer.size < size:
                if buffer is not None:
                    self._plan_shape, self._plan = None, ()
                    self._spare = None
                self._scratch[key] = np.empty(size, dtype=key[1])
        for step in steps:
            step.bind(self._scratch)

    def _step(self, index: int, stage: StagePlan, shape: tuple) -> _Step:
        """The step that runs stage ``index`` on an input of ``shape``:
        the kept plan's, or else, for a stage run outside
        :meth:`run_batch`, a one-stage plan, kept until the next
        such call needs another."""
        plan = self._plan
        if plan and plan[index].in_shape == shape:
            return plan[index]
        step = self._spare
        if step is None or step.index != index or step.stage is not stage \
                or step.in_shape != shape:
            step = _Step(
                index, stage, self._fused_stages[index], shape,
                index == len(self.net.stages) - 1,
            )
            self._bind([step])
            self._spare = step
        return step

    # --- conv execution -----------------------------------------------
    def _conv_fused(
        self,
        index: int,
        stage: StagePlan,
        batch: np.ndarray,
        residual: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """One conv stage over the whole (B, C, H, W) batch, seam
        included: its step's exact float-GEMM psums, max-pooled by the
        PDP if the step pools its psums (a stage of the kept plan whose
        next stage's max pool moved here; a stage run alone never
        pools), then the stage's :class:`_SdpEpilogue` over them in the
        same step's float64 scratch buffer, with the folded residual
        (if any, shaped like the output) added in the same pass.  The
        output is a fresh (B, K, OH, OW) array — int32 and
        channels-last in memory, except the final stage's, which is
        int64 and C-contiguous — so callers never alias scratch that
        the next batch will overwrite."""
        step = self._step(index, stage, batch.shape)
        if residual is not None:
            residual = residual.transpose(0, 2, 3, 1)
        psums = step.run(batch)
        if step.psum_pool is not None:
            psums = step.psum_pool.apply_many(
                psums.transpose(0, 3, 1, 2)
            ).transpose(0, 2, 3, 1)
        return step.epilogue(
            psums, step.buffer, step.addend, residual, step.final,
        )

    def _fused_psums(
        self, index: int, stage: StagePlan, batch: np.ndarray
    ) -> np.ndarray:
        """Pre-SDP psums of one stage (its seam applied to ``batch``)
        as a (B, K, OH, OW) view of channels-last scratch in the stage
        plan's float dtype — exact integers, because the plan's bound
        keeps every partial sum exactly representable."""
        step = self._step(index, stage, batch.shape)
        return step.run(batch).transpose(0, 3, 1, 2)
