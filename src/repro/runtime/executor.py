"""Shared batched execution engine for compiled networks.

:class:`BatchExecutor` is the single implementation of the vectorized
forward pass over a :class:`~repro.runtime.lowering.CompiledNetwork`:
seam adapters, PDP pools, each conv stage as an exact float GEMM on
BLAS, SDP requantization in place and the analytic cycle accounting —
per stage, on the stage's registered compute backend
(:mod:`repro.runtime.backends`).  Both the in-process
:class:`~repro.runtime.runner.NetworkRunner` and the worker processes of
:class:`~repro.serve.ShardedRunner` execute batches through this one
class, which is what makes the sharded serving path bit-identical (in
outputs *and* cycles) to single-process inference: there is exactly one
batched code path, and its oracle is the per-image run through the real
convolution cores
(:func:`~repro.runtime.runner.run_per_image`).

Beyond its compiled program the executor holds only derived, reusable
state: per-stage GEMM plans, per-stage cycle lines and grow-only
scratch buffers.  A stage's per-image cycles are affine in its output
pixels, ``per_pixel * out_pixels + fixed``, with both terms fixed by
the compiled weights (see
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
from repro.nvdla.sdp import _rounded_shift
from repro.runtime.backends import ComputeBackend, backend_profile, \
    resolve_stage_backends
from repro.runtime.lowering import CompiledNetwork, StagePlan

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

    Cycle accounting lives beside the plan, as the stage's cycle line
    (see :func:`_stage_cycle_line`): per-image cycles depend on the
    *actual* output-pixel count, which grows per step under
    autoregressive decode.
    """

    __slots__ = ("kind", "weights", "dtype", "bound")

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
    multiply-accumulate per tap) into shared scratch buffers, then the
    integer SDP in place; cycles come from each stage's cycle line.
    The float dtype is chosen per stage from a worst-case psum bound
    when the executor is built (see :class:`_FusedStage`), so psums
    are exact integers.  Outputs and cycles (total and per stage) are pinned
    bit-identical to the per-image run through the real cores on every
    backend and precision, and the psums stage by stage to the int64
    golden convolution, in ``tests/runtime/test_fused.py``.

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
        DataflowError: a stage's psum bound reaches 2**53, where no
            float dtype is exact.
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
        # One float-GEMM plan per stage, built (and its exactness bound
        # checked) here, so an unrepresentable stage fails at
        # construction, never mid-stream.  Beside it, the stage's cycle
        # line on its resolved backend (engine= overrides included),
        # evaluated per batch at the actual output-pixel count.
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

    # ------------------------------------------------------------------
    def run_batch(
        self, images: np.ndarray
    ) -> tuple[np.ndarray, tuple, int]:
        """One vectorized forward pass.

        Args:
            images: (B, C, H, W) integer batch of the expected shape.
                Its values must lie inside the network input precision
                — the one range check the conv kernel's exactness
                bound needs, since every later stage reads SDP-clipped
                activations.

        Returns:
            (output, stage_records, conv_cycles) — the stage records
            carry batch-total cycles, matching the
            :class:`~repro.runtime.runner.NetworkResult` contract.

        Raises:
            DataflowError: the batch is not 4-D, or a value lies
                outside the input precision.
        """
        if np.ndim(images) != 4:
            raise DataflowError(
                f"{self.net.name}: expected a (B, C, H, W) batch, got "
                f"shape {np.shape(images)}"
            )
        try:
            images = self.net.precision.check_array(images)
        except PrecisionError as error:
            raise DataflowError(
                f"{self.net.name}: input batch rejected: {error}"
            ) from None
        records: list[StageResult] = []
        current = images
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
            current, cycles = self._conv_fused(
                index, stage, current, residual
            )
            if stage.save_output:
                saved[index] = current
            cycles *= images.shape[0]
            total_cycles += cycles
            records.append(
                StageResult(
                    name=stage.name,
                    kind="conv",
                    output_shape=tuple(current.shape),
                    conv_cycles=cycles,
                )
            )
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

    def _add_residual(
        self,
        stage: StagePlan,
        outputs: np.ndarray,
        residual: "np.ndarray | None",
    ) -> np.ndarray:
        """Folded residual applied on the stage's requantized output —
        the SDP's elementwise-add unit, downstream of the scaling core.
        Both operands live in the activation format (a residual added
        to raw psums would be crushed by the requant scale), and the
        sum saturates back into the stage's output precision.  Exact
        integer arithmetic, so every execution path agrees bit-for-bit,
        and zero cycles — it rides the SDP pass like the bias add."""
        if residual is None:
            return outputs
        if residual.shape != outputs.shape:
            raise DataflowError(
                f"{stage.name}: folded residual shape "
                f"{residual.shape} does not match stage output "
                f"{outputs.shape}"
            )
        spec = stage.sdp.out_precision
        return np.clip(
            outputs + residual, spec.min_value, spec.max_value
        )

    def _conv_fused(
        self,
        index: int,
        stage: StagePlan,
        batch: np.ndarray,
        residual: "np.ndarray | None" = None,
    ) -> tuple[np.ndarray, int]:
        """One conv stage over the whole batch: the exact float-GEMM
        psums of :meth:`_fused_psums`, then the integer SDP
        requantization in place on them.  Returns per-image cycles
        (the caller scales by batch size): the stage's cycle line at
        the actual output-pixel count, which is the compiled geometry
        except on dynamic (token-axis) stages.  A folded residual is
        added to the requantized output after the SDP (see
        :meth:`_add_residual`)."""
        values = self._fused_psums(index, stage, batch)
        per_pixel, fixed = self._cycle_lines[index]
        cycles = per_pixel * values.shape[2] * values.shape[3] + fixed
        out = self._sdp_fused(stage, values)
        return self._add_residual(stage, out, residual), cycles

    def _fused_psums(
        self, index: int, stage: StagePlan, batch: np.ndarray
    ) -> np.ndarray:
        """Pre-SDP psums of one stage as a (B, K, OH, OW) int64 array
        (scratch-backed), computed in the stage plan's float dtype —
        exact, because the plan's bound keeps every partial sum an
        exactly representable integer."""
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
        values = self._scratch_buf(
            "values",
            (batch_size, layer.out_channels, out_height, out_width),
        )
        np.copyto(
            values, psums.reshape(values.shape), casting="unsafe"
        )
        return values

    def _sdp_fused(
        self, stage: StagePlan, values: np.ndarray
    ) -> np.ndarray:
        """In-place SDP requantization on the scratch-backed int64
        accumulator — op-for-op the integer arithmetic of
        :meth:`repro.nvdla.sdp.Sdp.apply_many`.  The returned array is
        always a fresh copy, so callers never alias scratch buffers
        that the next batch will overwrite."""
        config = stage.sdp
        if config.bias is not None:
            values += np.asarray(config.bias, dtype=np.int64)[
                None, :, None, None
            ]
        if config.activation == "relu":
            np.maximum(values, 0, out=values)
        elif config.activation == "prelu":
            negative = _rounded_shift(
                values * config.prelu_multiplier, config.prelu_shift
            )
            values = np.where(values >= 0, values, negative)
        values *= config.multiplier
        if config.shift:
            offset = 1 << (config.shift - 1)
            signs = np.sign(values)
            np.abs(values, out=values)
            values += offset
            values >>= config.shift
            values *= signs
        spec = config.out_precision
        return np.clip(values, spec.min_value, spec.max_value)
