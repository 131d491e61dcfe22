"""Shared batched execution engine for compiled networks.

:class:`BatchExecutor` is the single implementation of the vectorized
forward pass over a :class:`~repro.runtime.lowering.CompiledNetwork`:
seam adapters, PDP pools, per-group convolution, SDP requantization and
the analytic cycle accounting — per stage, on the stage's registered
compute backend (:mod:`repro.runtime.backends`).  Both the in-process
:class:`~repro.runtime.runner.NetworkRunner` and the worker processes of
:class:`~repro.serve.ShardedRunner` execute batches through this one
class, which is what makes the sharded serving path bit-identical (in
outputs *and* cycles) to single-process inference: there is exactly one
code path to agree with.

The executor is deliberately stateless beyond its compiled program, so
it can be constructed in a parent process and shipped to workers (the
compiled network pickles; with ``fork`` it is inherited copy-on-write
and the burst-map cache entries warmed during lowering come along for
free — see the cache notes in :mod:`repro.core.latency`).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.core.latency import burst_map_cache_stats
from repro.errors import DataflowError, PrecisionError
from repro.nvdla.dataflow import golden_conv2d_batched
from repro.nvdla.pdp import Pdp
from repro.nvdla.pipeline import StageResult
from repro.nvdla.sdp import Sdp, _rounded_shift
from repro.runtime.backends import DEFAULT_BACKEND, ComputeBackend, \
    backend_profile, get_backend, resolve_stage_backends
from repro.runtime.lowering import CompiledNetwork, StagePlan

#: Bound on the fused-path cycle memo (entries are (stage index,
#: output-pixel count) pairs).  Large enough that a whole CNN program
#: plus a long decode's worth of distinct sequence lengths stay warm;
#: small enough that token-by-token serving can never grow executor
#: state linearly with stream length.
FUSED_CYCLE_MEMO_SIZE = 256


#: Exact-integer limits of the float dtypes the fused kernel may use:
#: every integer of magnitude up to 2**24 (float32) / 2**53 (float64)
#: is representable, so a GEMM whose worst-case partial sum stays below
#: the limit produces exact integers whatever the summation order.
EXACT_FLOAT_LIMITS = ((1 << 24, np.float32), (1 << 53, np.float64))


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
    """Exact float-GEMM plan for one stage on the fused path.

    Built once per stage when the fused executor is constructed.  The
    per-group weights are stacked into one block, with each group's
    scheduled channel order folded back into the weight columns (the
    kernel reads input channels in their natural order, so no gather
    runs per batch), and converted to the float dtype picked by the
    stage's exactness bound::

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

    Cycle accounting lives in a separate shape-aware memo on the
    executor (:meth:`BatchExecutor._stage_cycles`): per-image cycles
    depend on the *actual* output-pixel count, which grows per step
    under autoregressive decode.
    """

    __slots__ = ("kind", "weights", "dtype", "bound", "kernel_restore")

    def __init__(self, stage: StagePlan) -> None:
        weights = np.stack(
            [np.asarray(tensor, dtype=np.int64) for tensor in stage.weights]
        )
        for group, schedule in enumerate(stage.schedules):
            if schedule is not None:
                natural = np.empty_like(weights[group])
                natural[:, schedule.channel_order] = weights[group]
                weights[group] = natural
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
        self.kernel_restore = _flat_permutation(
            stage.kernel_restores, groups, kernels_per_group
        )


def _flat_permutation(per_group, groups: int, width: int):
    """Fuse per-group index permutations into one gather over the flat
    (group-major) axis; ``None`` when every group is the identity."""
    orders = list(per_group)
    if all(order is None for order in orders):
        return None
    flat = np.empty(groups * width, dtype=np.intp)
    for group, order in enumerate(orders):
        base = group * width
        if order is None:
            flat[base : base + width] = np.arange(base, base + width)
        else:
            flat[base : base + width] = base + np.asarray(order)
    return flat


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
        fused: run the fused hot path — each conv stage as an exact
            float GEMM on BLAS (im2col plus one matmul over groups;
            1x1 stages skip im2col, depthwise stages multiply-accumulate
            per tap) into reused scratch buffers, then the integer SDP
            in place, with memoized cycle accounting.  The float dtype
            is chosen per stage from a worst-case psum bound when the
            executor is built (see :class:`_FusedStage`), so psums are
            exact integers and outputs and cycles are bit-identical to
            the unfused int64 path on every backend and precision;
            pinned by the randomized differential and psum-identity
            suites in ``tests/runtime/test_fused.py``.
    """

    def __init__(
        self,
        net: CompiledNetwork,
        engine: "str | None" = None,
        fused: bool = False,
    ) -> None:
        self.net = net
        self.fused = bool(fused)
        self.stage_backends: "tuple[ComputeBackend, ...]" = \
            resolve_stage_backends(net, engine)
        if engine is None:
            names = {backend.name for backend in self.stage_backends}
            self.engine = names.pop() if len(names) == 1 else "mixed"
        else:
            self.engine = backend_profile(engine).describe()
        # Fused-path state: one float-GEMM plan per stage, built (and
        # its exactness bound checked) here, so an unrepresentable
        # stage fails at construction, never mid-stream; reusable
        # scratch buffers keyed by role + stage index, built on first
        # use.  Cycle totals live in their own bounded LRU keyed
        # (stage index, actual output pixels): autoregressive decode
        # presents a different token count — hence a different
        # output-pixel count — every step, and an unbounded per-shape
        # memo would grow linearly with decoded tokens (the fixed-shape
        # CNN assumption baked into the old per-stage memo).
        self._fused_stages: "tuple[_FusedStage, ...]" = (
            tuple(_FusedStage(stage) for stage in net.stages)
            if self.fused
            else ()
        )
        self._fused_cycles: "OrderedDict[tuple, int]" = OrderedDict()
        self._scratch: "dict[tuple, np.ndarray]" = {}

    # ------------------------------------------------------------------
    def run_batch(
        self, images: np.ndarray
    ) -> tuple[np.ndarray, tuple, int]:
        """One vectorized forward pass.

        Args:
            images: (B, C, H, W) integer batch of the expected shape.
                Its values must lie inside the network input precision
                — the one range check the fused kernel's exactness
                bound needs, since every later stage reads SDP-clipped
                activations.

        Returns:
            (output, stage_records, conv_cycles) — the stage records
            carry batch-total cycles, matching the
            :class:`~repro.runtime.runner.NetworkResult` contract.

        Raises:
            DataflowError: a value lies outside the input precision.
        """
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
        # the first stage's seam adapters).  Outputs are fresh arrays
        # on both paths, so keeping references is safe across scratch
        # reuse.
        saved: dict[int, np.ndarray] = {}
        save_input = self.net.needs_input_saved
        for index, (stage, backend) in enumerate(
            zip(self.net.stages, self.stage_backends)
        ):
            current = self._fit_batch(stage, current, records)
            if index == 0 and save_input:
                saved[-1] = np.asarray(current, dtype=np.int64)
            residual = (
                saved[stage.residual_from]
                if stage.residual_from is not None
                else None
            )
            if self.fused:
                current, cycles = self._conv_fused(
                    index, stage, current, backend, residual
                )
            else:
                current, cycles = self._conv_batched(
                    stage, current, backend, residual
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
        record (output, cycles, per-stage cycles, cache delta) that can
        cross a process boundary."""
        before = burst_map_cache_stats()
        output, records, cycles = self.run_batch(images)
        after = burst_map_cache_stats()
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
            "cache": {
                "hits": after["hits"] - before["hits"],
                "misses": after["misses"] - before["misses"],
                "disk_hits": (
                    after["disk_hits"] - before["disk_hits"]
                ),
                "disk_misses": (
                    after["disk_misses"] - before["disk_misses"]
                ),
                "disk_writes": (
                    after["disk_writes"] - before["disk_writes"]
                ),
            },
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
    def _conv_batched(
        self,
        stage: StagePlan,
        batch: np.ndarray,
        backend: ComputeBackend,
        residual: "np.ndarray | None" = None,
    ) -> tuple[np.ndarray, int]:
        """One conv stage over the whole batch; returns per-image
        cycles (the caller scales by batch size).  A folded residual is
        added to the requantized output after the SDP (see
        :meth:`_add_residual`)."""
        layer = stage.layer
        channels_per_group = layer.channels_per_group
        pad_h, pad_w = layer.padding_h, layer.padding_w
        padded = np.pad(
            batch,
            ((0, 0), (0, 0), (pad_h, pad_h), (pad_w, pad_w)),
            mode="constant",
        )
        outputs = []
        cycles = 0
        out_pixels: "int | None" = None
        for group, weights in enumerate(stage.weights):
            group_input = padded[
                :,
                group * channels_per_group : (group + 1)
                * channels_per_group,
            ]
            schedule = stage.schedules[group]
            if schedule is not None:
                group_input = group_input[:, schedule.channel_order]
            group_out = golden_conv2d_batched(
                group_input, weights, layer.stride, 0
            )
            if schedule is not None:
                group_out = group_out[:, stage.kernel_restores[group]]
            outputs.append(group_out)
            if stage.dynamic_hw and out_pixels is None:
                out_pixels = group_out.shape[-2] * group_out.shape[-1]
            cycles += self.group_cycles(
                stage, weights, backend, out_pixels=out_pixels
            )
        psums = (
            np.concatenate(outputs, axis=1)
            if len(outputs) > 1
            else outputs[0]
        )
        out = Sdp(stage.sdp).apply_many(psums)
        return self._add_residual(stage, out, residual), cycles

    # --- fused hot path -----------------------------------------------
    def _scratch_buf(
        self, key: tuple, shape: tuple, dtype=np.int64
    ) -> np.ndarray:
        """Reusable scratch, reallocated only on shape change (e.g. a
        different batch size).  Fresh buffers are zeroed, so
        padded-input borders stay zero across reuses as long as only
        the interior is rewritten."""
        buffer = self._scratch.get(key)
        if buffer is None or buffer.shape != shape:
            buffer = np.zeros(shape, dtype=dtype)
            self._scratch[key] = buffer
        return buffer

    def _stage_cycles(
        self,
        index: int,
        stage: StagePlan,
        backend: ComputeBackend,
        out_pixels: "int | None",
    ) -> int:
        """Memoized per-image cycles of one whole stage at one actual
        output-pixel count.  Bounded LRU (see
        :data:`FUSED_CYCLE_MEMO_SIZE`): growing-sequence decode streams
        present a new shape every token, and the memo must not grow
        with stream length."""
        key = (index, out_pixels)
        cached = self._fused_cycles.get(key)
        if cached is not None:
            self._fused_cycles.move_to_end(key)
            return cached
        cycles = sum(
            self.group_cycles(
                stage, weights, backend, out_pixels=out_pixels
            )
            for weights in stage.weights
        )
        self._fused_cycles[key] = cycles
        while len(self._fused_cycles) > FUSED_CYCLE_MEMO_SIZE:
            self._fused_cycles.popitem(last=False)
        return cycles

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
        backend: ComputeBackend,
        residual: "np.ndarray | None" = None,
    ) -> tuple[np.ndarray, int]:
        """Fused equivalent of :meth:`_conv_batched` + SDP: the exact
        float-GEMM psums of :meth:`_fused_psums`, then the integer SDP
        requantization in place on them.  Outputs and cycles are
        bit-identical to the unfused path."""
        values = self._fused_psums(index, stage, batch)
        cycles = self._stage_cycles(
            index,
            stage,
            backend,
            values.shape[2] * values.shape[3]
            if stage.dynamic_hw
            else None,
        )
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
            operand = self._scratch_buf(
                ("input", index), out_shape, plan.dtype
            )
            operand[...] = batch[:, :, ::stride, ::stride]
        else:
            source = self._scratch_buf(
                ("input", index),
                (batch_size, channels,
                 height + 2 * pad_h, width + 2 * pad_w),
                plan.dtype,
            )
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
            psums = self._scratch_buf(
                ("psum", index), out_shape, plan.dtype
            )
            partial = self._scratch_buf(
                ("partial", index), out_shape, plan.dtype
            )
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
                    ("columns", index),
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
                ("psum", index),
                (batch_size, groups, kernels_per_group, pixels),
                plan.dtype,
            )
            np.matmul(
                plan.weights,
                operand.reshape(batch_size, groups, -1, pixels),
                out=psums,
            )
        values = self._scratch_buf(
            ("values", index),
            (batch_size, layer.out_channels, out_height, out_width),
        )
        np.copyto(
            values, psums.reshape(values.shape), casting="unsafe"
        )
        if plan.kernel_restore is not None:
            values = np.take(values, plan.kernel_restore, axis=1)
        return values

    def _sdp_fused(
        self, stage: StagePlan, values: np.ndarray
    ) -> np.ndarray:
        """In-place SDP requantization on the (possibly scratch-backed)
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
        return np.clip(values, spec.min_value, spec.max_value).astype(
            np.int64
        )

    def group_cycles(
        self,
        stage: StagePlan,
        weights: np.ndarray,
        backend: "ComputeBackend | None" = None,
        out_pixels: "int | None" = None,
    ) -> int:
        """Analytic per-image cycles of one layer group on the stage's
        backend — identical to the formula the backend's reference core
        uses (pinned by the equivalence tests).  Value-aware for
        temporal backends: cycles derive from the actual quantized
        weight magnitudes via the burst-map machinery, at the *stage*
        configuration, so each stage is accounted at its own precision
        (and backend) under mixed profiles."""
        if backend is None:
            # Identity lookup first, so an executor constructed with an
            # engine override accounts its own stages on that override.
            # (StagePlan equality compares tuples of ndarrays, so
            # index()/== would be unsafe here.)  Stage copies that are
            # not part of this program resolve like
            # resolve_stage_backends: the stage's recorded backend.
            backend = next(
                (
                    candidate
                    for plan, candidate in zip(
                        self.net.stages, self.stage_backends
                    )
                    if plan is stage
                ),
                None,
            )
            if backend is None:
                backend = get_backend(stage.backend or DEFAULT_BACKEND)
        return backend.layer_cycles(
            stage, weights, self.net.code, out_pixels=out_pixels
        )
