"""Lower a ``models/zoo.py`` topology into executable pipeline stages.

The zoo records every convolution layer of the paper's eight Table-I
CNNs — channel counts, kernels, strides, groups and the spatial size
each layer sees — as a flat, ordered list (branchy modules are recorded
in execution order).  This module compiles that list plus the model's
synthesized quantized weights (:mod:`repro.models.weights`) into
:class:`StagePlan` objects the batched runtime executes end to end on
the NVDLA pipeline:

* **conv** — each layer's int64 weights as one natural-order
  (G, K, C, R, S) array, plus the kernel and channel orders the
  burst-aware tile scheduler (:mod:`repro.core.scheduling`) picked per
  group: the orders decide which weights share a k x n tile, so they
  change the stage's burst cycles but never its outputs;
* **SDP** — a deterministic per-layer requantization (multiplier/shift
  derived from the layer's mean kernel L1 mass, per-kernel bias, ReLU
  on every hidden layer) that produces activations in the *next*
  stage's integer format, as a calibrated deployment would;
* **PDP** — max-pool stages inserted at the spatial-reduction seams the
  zoo builders recorded with ``net.pool(...)`` (a layer whose declared
  input is at most half its predecessor's output);
* **seam adapters** — branchy graphs are executed sequentially, so at
  module boundaries (concats, splits) the declared input of the next
  layer can disagree with the previous output.  Channel tiling/slicing
  and corner crop/zero-pad bridge those seams; both are deterministic
  functions of the declared shapes, so the batched and per-image paths
  stay bit-identical.

Per-layer precision: the quantized model carries a
:class:`~repro.quant.profile.PrecisionProfile`, and every stage is
lowered at its *own* format — a per-stage :class:`CoreConfig`
(geometry shared, precision per stage), weights quantized at the stage
format, SDP requant targeting the next stage's activation format, and
a final-stage psum format derived from the last stage's precision
(3x its width: product bits plus accumulation headroom — the 24-bit
convention at INT8).  Tempus burst latency follows the weights, so
low-precision stages automatically run in shorter bursts while the
binary CMAC's cycle cost stays fixed — the paper's scaling claim.

Spatial rescaling (``input_size=``) shrinks every layer's declared
resolution by a common factor so full topologies stay cheap to execute
in simulation; channel structure (and therefore burst behaviour) is
untouched.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.scheduling import search_stage_orders
from repro.errors import DataflowError
from repro.models.layers import (
    ConvLayerSpec,
    LinearSpec,
    NormSpec,
    OpSpec,
    RESIDUAL_INPUT,
    ResidualAddSpec,
)
from repro.models.weights import QuantizedModel
from repro.nvdla.config import CoreConfig
from repro.nvdla.pdp import PdpConfig
from repro.nvdla.sdp import SdpConfig, requant_params_from_scale
from repro.quant.profile import PrecisionProfile
from repro.unary.encoding import TwosUnaryCode, UnaryCode
from repro.utils.intrange import IntSpec, int_spec
from repro.utils.rng import make_rng


def final_psum_spec(precision: IntSpec) -> IntSpec:
    """Partial-sum format the final stage's logits keep: 3x the operand
    width (2w product bits plus w bits of accumulation headroom) — the
    standard 24-bit psum convention at INT8, scaled with the format."""
    return int_spec(3 * precision.width)


@dataclass(frozen=True)
class StagePlan:
    """One lowered convolution layer plus the seam adapters before it.

    Attributes:
        name: the zoo layer name.
        layer: the (possibly spatially rescaled) layer spec.
        weights: the layer's read-only int64 weights as a
            (G, K, C, R, S) array in natural order (lowered stages
            view the layer's codes, so lowering copies nothing).
        kernel_order: (G, K) per-group kernel permutations the tiles
            stream in (identity rows where scheduling saved nothing).
        channel_order: (G, C) per-group channel permutations, likewise.
        sdp: the layer's requantization pass (produces the next
            stage's activation format).
        fit_channels: channel count the input is tiled/sliced to.
        pool: optional PDP stage bridging a spatial-reduction seam.
        fit_hw: (H, W) the input is cropped/zero-padded to after the
            optional pool.
        precision: the stage's operand format (activations and
            weights) under the network's precision profile.
        config: the stage's core configuration — the network geometry
            at the stage's precision.
        backend: registered compute-backend name the stage is
            accounted on (:mod:`repro.runtime.backends`); None falls
            back to the executor's default.
        dynamic_hw: the stage accepts any runtime spatial size (linear
            stages: the token axis grows during autoregressive decode).
            The spatial seam adapter is skipped and cycle accounting
            uses the *actual* output-pixel count, not the nominal one.
        residual_from: folded residual add — the stage index whose
            saved output is added to this stage's psums before the SDP
            (``-1`` = the model input itself); None = no residual.
        save_output: a later stage's ``residual_from`` references this
            stage, so the executor keeps its output for the run.
    """

    name: str
    layer: OpSpec
    weights: np.ndarray
    kernel_order: np.ndarray
    channel_order: np.ndarray
    sdp: SdpConfig
    fit_channels: int
    pool: PdpConfig | None
    fit_hw: tuple
    precision: IntSpec
    config: CoreConfig
    backend: "str | None" = None
    dynamic_hw: bool = False
    residual_from: "int | None" = None
    save_output: bool = False

    @property
    def groups(self) -> int:
        return self.layer.groups

    def scheduled_weights(self) -> np.ndarray:
        """The (G, K, C, R, S) weights in tile order — each group's
        kernels and channels gathered by its order rows — as the array
        streams them: their burst maps set the stage's cycles, and
        group ``g`` is what the per-image cores run on its input
        channels gathered by ``channel_order[g]``."""
        return self.weights[
            np.arange(len(self.weights))[:, None, None],
            self.kernel_order[:, :, None],
            self.channel_order[:, None, :],
        ]


def identity_orders(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(kernel_order, channel_order)`` of an unscheduled
    (G, K, C, R, S) weight array: read-only identity rows."""
    groups, kernels, channels = np.shape(weights)[:3]
    return (
        np.broadcast_to(np.arange(kernels), (groups, kernels)),
        np.broadcast_to(np.arange(channels), (groups, channels)),
    )


@dataclass(frozen=True)
class CompiledNetwork:
    """A zoo model compiled for the batched runtime.

    Attributes:
        name: zoo model name.
        config: the provisioned MAC-array geometry — its precision is
            the profile's widest member; each stage narrows it via
            :attr:`StagePlan.config`.
        precision: the *network input* activation format (the first
            stage's precision).
        code: unary code used for burst-latency accounting.
        stages: ordered conv stages (adapters embedded), each at its
            own precision.
        input_shape: (C, H, W) the first layer consumes.
        scheduling: whether tile scheduling was applied.
        profile: the per-layer precision recipe the network was
            lowered under.
        backends: the per-layer compute-backend recipe
            (:class:`~repro.runtime.backends.BackendProfile`) the
            network was lowered under; None on pre-registry programs.
    """

    name: str
    config: CoreConfig
    precision: IntSpec
    code: UnaryCode
    stages: tuple
    input_shape: tuple
    scheduling: bool
    profile: PrecisionProfile
    backends: "object | None" = None

    @property
    def output_shape(self) -> tuple:
        last = self.stages[-1].layer
        return (last.out_channels, last.out_height, last.out_width)

    @property
    def macs_per_image(self) -> int:
        return sum(stage.layer.macs for stage in self.stages)

    # The per-batch checks below read cached stage-derived terms: a
    # decode step would otherwise walk every stage twice.  The caches
    # live in the instance dict, which pickles with the program.
    @cached_property
    def dynamic_tokens(self) -> bool:
        """True when any stage accepts runtime-sized inputs (transformer
        decode: the token axis grows per step)."""
        return any(stage.dynamic_hw for stage in self.stages)

    @property
    def token_independent(self) -> bool:
        """True when no stage mixes rows along the token axis: every
        stage is dynamic, has a 1x1 kernel at stride 1 without padding
        and no pool, so each output row depends only on its own input
        row.  The executor then runs a batch that extends its last one
        only on the new rows."""
        return all(
            stage.dynamic_hw
            and stage.pool is None
            and stage.layer.kernel_h == stage.layer.kernel_w == 1
            and stage.layer.stride == 1
            and not (stage.layer.padding_h or stage.layer.padding_w)
            for stage in self.stages
        )

    @cached_property
    def _mac_terms(self) -> "tuple[int, int]":
        """``(per_token, fixed)`` per-image multiply-accumulates: the
        dynamic stages' per-token work and the other stages' whole
        work."""
        per_token = fixed = 0
        for stage in self.stages:
            if stage.dynamic_hw:
                per_token += stage.layer.macs // stage.layer.out_height
            else:
                fixed += stage.layer.macs
        return per_token, fixed

    def batch_macs(self, shape: tuple) -> int:
        """Useful multiply-accumulates of one (B, C, H, W) batch.  A
        dynamic stage does its layer's per-token work once per token
        the batch actually carries (``H``), not at the nominal length
        it was compiled for."""
        batch_size, _, tokens, _ = shape
        per_token, fixed = self._mac_terms
        return batch_size * (per_token * tokens + fixed)

    @property
    def needs_input_saved(self) -> bool:
        """True when some stage's folded residual references the model
        input itself."""
        return any(
            stage.residual_from == -1 for stage in self.stages
        )

    def check_batch(self, images: np.ndarray) -> np.ndarray:
        """Validate a (B, C, H, W) input batch; returns it as int64.

        The shape must pass :meth:`check_shape`, and values must be
        integers inside the input precision.

        Raises:
            DataflowError: the shape does not match.
            PrecisionError: a value is non-integer or out of range.
        """
        return self.precision.check_array(self.check_shape(images))

    def check_shape(self, images: np.ndarray) -> np.ndarray:
        """Validate the shape of a (B, C, H, W) input batch only;
        returns it as an array, values unchecked.

        The shape must be ``(B,) + input_shape`` with ``B >= 1``,
        except that dynamic-token programs accept any sequence length
        on the token (height) axis — autoregressive decode grows it per
        step; channels and width stay structural.

        Raises:
            DataflowError: the shape does not match or the batch is
                empty.
        """
        images = np.asarray(images)
        expected = tuple(self.input_shape)
        if images.ndim == 4 and images.shape[0] == 0:
            raise DataflowError(
                f"{self.name}: empty batch of shape {images.shape}; "
                "a batch needs at least one image"
            )
        matches = (
            images.ndim == 4 and tuple(images.shape[1:]) == expected
        )
        if not matches and images.ndim == 4 and self.dynamic_tokens:
            channels, _, width = expected
            matches = (
                images.shape[1] == channels
                and images.shape[2] >= 1
                and images.shape[3] == width
            )
        if not matches:
            raise DataflowError(
                f"batch shape {images.shape} does not match "
                f"(B,) + {expected}"
            )
        return images


def _rescale_layer(layer: OpSpec, factor: float) -> OpSpec:
    """Scale a layer's declared spatial size, keeping the kernel legal.
    For linear ops the "spatial size" is the nominal token count."""
    if factor == 1.0:
        return layer
    if isinstance(layer, LinearSpec):
        return layer.with_tokens(
            max(1, int(round(layer.tokens * factor)))
        )

    def scaled(value: int, kernel: int, pad: int) -> int:
        floor = max(1, kernel - 2 * pad)
        return max(floor, int(round(value * factor)))

    return dataclasses.replace(
        layer,
        in_height=scaled(layer.in_height, layer.kernel_h, layer.padding_h),
        in_width=scaled(layer.in_width, layer.kernel_w, layer.padding_w),
    )


def _layer_sdp(
    layer: "ConvLayerSpec | LinearSpec",
    codes: np.ndarray,
    precision: IntSpec,
    next_precision: IntSpec | None,
    model_name: str,
    index: int,
) -> SdpConfig:
    """Deterministic requantization for one layer.

    The rescale maps typical partial sums back into the activation
    format.  Conv stages: with post-ReLU activations averaging about
    half the code range, a kernel's partial sum scales with its L1
    weight mass, so ``2 / mean(sum |w|)`` recentres the output
    distribution on the format's range.  Linear stages get a
    *unit-gain* calibration instead: a transformer block chains six
    projections with no pooling between them to recentre ranges, and
    a dense dot product of centred activations grows like
    ``sqrt(fan_in) * rms(w)`` (not the L1 mass, which assumes the
    sparse one-sided feature maps of a CNN and collapses a linear
    chain to all-zero within a few stages), so dividing by that keeps
    activation energy constant layer to layer.  Hidden stages
    requantize into the *next* stage's activation format
    (``next_precision``); the final stage (``next_precision=None``)
    keeps full psum resolution in the wide format its own precision
    implies (standard practice for logits).  The bias range is
    likewise derived from the format the stage produces into, not
    assumed INT8.
    """
    if isinstance(layer, LinearSpec):
        rms = (
            float(np.sqrt(np.mean(np.square(codes, dtype=np.float64))))
            if codes.size
            else 1.0
        )
        multiplier, shift = requant_params_from_scale(
            1.0 / max(1.0, float(np.sqrt(layer.fan_in)) * rms)
        )
    else:
        # |codes| of <=8-bit codes fit their int16; the sum is int64.
        kernel_l1 = np.abs(codes).sum(
            axis=(1, 2, 3), dtype=np.int64
        ).astype(np.float64)
        mean_l1 = float(kernel_l1.mean()) if kernel_l1.size else 1.0
        multiplier, shift = requant_params_from_scale(
            2.0 / max(2.0, mean_l1)
        )
    bias_rng = make_rng("runtime", model_name, "bias", index)
    bias_spec = precision if next_precision is None else next_precision
    half = max(1, bias_spec.max_magnitude // 2)
    bias = bias_rng.integers(
        -half, half + 1, layer.out_channels
    ).astype(np.int64)
    if next_precision is None:
        return SdpConfig(
            out_precision=final_psum_spec(precision),
            bias=bias,
            multiplier=multiplier,
            shift=shift,
        )
    return SdpConfig(
        out_precision=next_precision,
        bias=bias,
        multiplier=multiplier,
        shift=shift,
        activation="relu",
    )


def _fold_residual(
    op: ResidualAddSpec,
    plans: list,
    stage_by_name: dict,
    input_shape: tuple,
) -> None:
    """Fold a residual add into the preceding weighted stage: the add
    happens on that stage's requantized output (the SDP elementwise-add
    unit), saturating in the stage's output format."""
    if not plans:
        raise DataflowError(
            f"{op.name}: residual add needs a preceding weighted stage"
        )
    target = plans[-1]
    if target["residual_from"] is not None:
        raise DataflowError(
            f"{op.name}: stage {target['name']} already carries a "
            "folded residual"
        )
    consumer = target["layer"]
    out_shape = (
        consumer.out_channels,
        consumer.out_height,
        consumer.out_width,
    )
    if op.source == RESIDUAL_INPUT:
        if input_shape != out_shape:
            raise DataflowError(
                f"{op.name}: input residual shape {input_shape} does "
                f"not match {consumer.name} output {out_shape}"
            )
        target["residual_from"] = -1
        return
    source_index = stage_by_name.get(op.source)
    if source_index is None:
        raise DataflowError(
            f"{op.name}: unknown residual source {op.source!r} "
            "(must name an earlier weighted op, or "
            f"{RESIDUAL_INPUT!r} for the model input)"
        )
    if source_index == len(plans) - 1:
        raise DataflowError(
            f"{op.name}: residual source {op.source!r} is the "
            "consuming stage itself"
        )
    source = plans[source_index]["layer"]
    source_shape = (
        source.out_channels,
        source.out_height,
        source.out_width,
    )
    if source_shape != out_shape:
        raise DataflowError(
            f"{op.name}: residual source {op.source!r} output "
            f"{source_shape} does not match {consumer.name} output "
            f"{out_shape}"
        )
    target["residual_from"] = source_index
    plans[source_index]["save_output"] = True


def _fold_norm(op: NormSpec, plans: list) -> None:
    """Fold a layernorm-as-requant approximation into the preceding
    weighted stage's SDP shift (exact integer op — see
    :class:`repro.models.layers.NormSpec`)."""
    if not plans:
        raise DataflowError(
            f"{op.name}: norm needs a preceding weighted stage"
        )
    target = plans[-1]
    extra = op.requant_shift(target["layer"].fan_in)
    if extra:
        target["sdp"] = dataclasses.replace(
            target["sdp"], shift=target["sdp"].shift + extra
        )


def _group_plans(
    codes64: np.ndarray,
    layer: ConvLayerSpec,
    config: CoreConfig,
    code: UnaryCode,
    scheduling: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A layer's weights as a (G, K, C, R, S) view of ``codes64`` plus
    their tile orders, from one schedule search over the whole stack of
    groups (identity orders without scheduling)."""
    groups = layer.groups
    weights = codes64.reshape(
        (groups, layer.out_channels // groups) + codes64.shape[1:]
    )
    if not scheduling:
        return (weights,) + identity_orders(weights)
    kernel_order, channel_order, _, _ = search_stage_orders(
        weights, config, code
    )
    return weights, kernel_order, channel_order


def lower_model(
    model: QuantizedModel,
    config: CoreConfig | None = None,
    input_size: int | None = None,
    scheduling: bool = True,
    code: UnaryCode | None = None,
    backend=None,
) -> CompiledNetwork:
    """Compile a quantized zoo model into batched-runtime stages.

    Args:
        model: output of :func:`repro.models.weights.load_quantized_model`
            (``config.precision`` must match the widest member of its
            precision profile — the format the array is provisioned
            for; each stage then runs at its own profile precision).
        config: MAC-array geometry (defaults to 16x16 at the model's
            provisioned precision).
        input_size: optionally rescale the network's declared input
            resolution (e.g. 32 runs a 224x224 topology at 32x32).
        scheduling: apply burst-aware tile scheduling per layer/group.
        code: unary code for latency accounting (default 2s-unary).
        backend: per-stage compute-backend recipe — anything
            :func:`repro.runtime.backends.backend_profile` accepts: a
            registered name (``"binary"``, ``"tempus"``, ``"tugemm"``,
            ``"tubgemm"``), a ``"first/interior/last"`` mixed spec
            composing with the precision profile (e.g. binary INT8
            edges around tubGEMM INT4 interior), or a
            :class:`~repro.runtime.backends.BackendProfile`.  Defaults
            to uniform :data:`~repro.runtime.backends.DEFAULT_BACKEND`.
    """
    # Imported here: backends sits above lowering in the package graph
    # (it consumes StagePlans), so the module-level import would cycle.
    from repro.runtime.backends import DEFAULT_BACKEND, backend_profile

    if not model.layers:
        raise DataflowError(f"model {model.name!r} has no layers")
    weighted = [q for q in model.layers if q.layer.is_weighted]
    if not weighted:
        raise DataflowError(
            f"model {model.name!r} has no weighted ops"
        )
    backends = backend_profile(
        backend if backend is not None else DEFAULT_BACKEND
    )
    code = code if code is not None else TwosUnaryCode()
    config = (
        config
        if config is not None
        else CoreConfig(precision=model.precision)
    )
    if config.precision.width != model.precision.width:
        raise DataflowError(
            f"config precision {config.precision.name} != model "
            f"provisioned precision {model.precision.name} "
            f"(profile {model.profile.describe()})"
        )

    native = weighted[0].layer.in_height
    factor = 1.0 if input_size is None else input_size / native
    if factor <= 0 or factor > 1:
        raise DataflowError(
            f"input_size {input_size} must shrink the native {native} "
            "resolution"
        )

    first_layer = _rescale_layer(weighted[0].layer, factor)
    input_shape = (
        first_layer.in_channels,
        first_layer.in_height,
        first_layer.in_width,
    )

    # One kwargs dict per weighted op; weightless glue folds into the
    # most recent entry (residual/norm cost zero extra cycles, like the
    # SDP bias/ReLU they ride next to), and the dicts freeze into
    # StagePlans once the whole graph is walked.
    plans: list[dict] = []
    stage_by_name: dict[str, int] = {}
    previous: tuple | None = None  # (C, H, W) of the previous output
    weighted_count = len(weighted)
    position = 0  # index among weighted ops
    for index, quantized in enumerate(model.layers):
        op = quantized.layer
        if isinstance(op, ResidualAddSpec):
            _fold_residual(op, plans, stage_by_name, input_shape)
            continue
        if isinstance(op, NormSpec):
            _fold_norm(op, plans)
            continue
        if not op.is_weighted:
            raise DataflowError(
                f"{op.name}: cannot lower op type "
                f"{type(op).__name__}"
            )
        layer = _rescale_layer(op, factor)
        stage_precision = quantized.precision
        stage_config = (
            config
            if stage_precision.width == config.precision.width
            else config.with_precision(stage_precision)
        )
        weights, kernel_order, channel_order = _group_plans(
            quantized.codes64, layer, stage_config, code, scheduling
        )
        sdp = _layer_sdp(
            layer,
            quantized.codes,
            stage_precision,
            None
            if position == weighted_count - 1
            else weighted[position + 1].precision,
            model.name,
            index,
        )

        pool: PdpConfig | None = None
        if previous is not None and isinstance(layer, ConvLayerSpec):
            _, prev_h, prev_w = previous
            target_h, target_w = layer.in_height, layer.in_width
            if prev_h >= 2 * target_h and prev_w >= 2 * target_w:
                ratio = min(prev_h // target_h, prev_w // target_w)
                pool = PdpConfig("max", kernel=ratio)
        plans.append(
            dict(
                name=layer.name,
                layer=layer,
                weights=weights,
                kernel_order=kernel_order,
                channel_order=channel_order,
                sdp=sdp,
                fit_channels=layer.in_channels,
                pool=pool,
                fit_hw=(layer.in_height, layer.in_width),
                precision=stage_precision,
                config=stage_config,
                backend=backends.spec_for(position, weighted_count),
                dynamic_hw=isinstance(layer, LinearSpec),
                residual_from=None,
                save_output=False,
            )
        )
        stage_by_name[layer.name] = len(plans) - 1
        previous = (
            layer.out_channels,
            layer.out_height,
            layer.out_width,
        )
        position += 1

    stages = tuple(StagePlan(**kwargs) for kwargs in plans)
    return CompiledNetwork(
        name=model.name,
        config=config,
        precision=stages[0].precision,
        code=code,
        stages=stages,
        input_shape=input_shape,
        scheduling=scheduling,
        profile=model.profile,
        backends=backends,
    )
