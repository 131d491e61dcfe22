"""Deploy the trained NumPy CNN onto the simulated accelerator.

Fig. 1 motivates low-precision deployment; this module closes the loop on
our substrate: the FP32 :class:`~repro.models.accuracy.SmallCnn` is
post-training-quantized and *compiled* into the runtime's own program, a
:class:`~repro.runtime.lowering.CompiledNetwork` of integer conv stages
(conv + SDP requant, with PDP pools as seam adapters), which the one
batched executor (:class:`~repro.runtime.executor.BatchExecutor`) runs
on any registered compute backend — so classifier accuracy is measured
on the simulated hardware path every zoo network takes, not just with
fake-quant arithmetic.

Mapping notes:

* both 3x3 convs map directly;
* each max pool becomes the PDP pool in front of the next stage;
* the final FC layer over the 3x3x16 feature map is a 3x3 valid
  convolution with 10 kernels (a standard lowering);
* per-stage requantization multipliers follow scale algebra:
  ``psum_scale = in_scale * w_scale`` and the SDP rescales psums into the
  next stage's activation scale;
* biases fold into the SDP bias port as ``round(bias / psum_scale)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.accuracy import Dataset, SmallCnn
from repro.models.layers import ConvLayerSpec
from repro.nvdla.config import CoreConfig
from repro.nvdla.pdp import PdpConfig
from repro.nvdla.sdp import SdpConfig, requant_params_from_scale
from repro.quant.calibration import calibrate_percentile
from repro.quant.profile import precision_profile
from repro.quant.quantize import SymmetricQuantizer
from repro.runtime.executor import BatchExecutor
from repro.runtime.lowering import CompiledNetwork, StagePlan, identity_orders
from repro.unary.encoding import TwosUnaryCode
from repro.utils.intrange import IntSpec, int_spec


@dataclass(frozen=True)
class CompiledCnn:
    """An integer network ready for the accelerator.

    Attributes:
        network: the compiled program (conv1, conv2, fc), on an 8x8
            array at the compiled precision.
        input_quantizer: maps FP32 images to integer activations.
    """

    network: CompiledNetwork
    input_quantizer: SymmetricQuantizer


def _weight_quantizer(
    weights: np.ndarray, spec: IntSpec, percentile: float
) -> SymmetricQuantizer:
    calib = calibrate_percentile(weights, percentile)
    return SymmetricQuantizer.from_threshold(spec, calib.threshold)


def _conv_stage(
    name: str,
    weights: np.ndarray,
    sdp: SdpConfig,
    config: CoreConfig,
    in_size: int,
    padding: int = 0,
    pool: PdpConfig | None = None,
) -> StagePlan:
    """One dense, unscheduled conv stage whose input is ``in_size``
    square after its optional PDP pool."""
    out_channels, in_channels, kernel_h, kernel_w = weights.shape
    stack = np.asarray(weights, dtype=np.int64)[np.newaxis]
    kernel_order, channel_order = identity_orders(stack)
    return StagePlan(
        name=name,
        layer=ConvLayerSpec(
            name,
            in_channels,
            out_channels,
            kernel_h,
            kernel_w,
            padding=padding,
            in_height=in_size,
            in_width=in_size,
        ),
        weights=stack,
        kernel_order=kernel_order,
        channel_order=channel_order,
        sdp=sdp,
        fit_channels=in_channels,
        pool=pool,
        fit_hw=(in_size, in_size),
        precision=config.precision,
        config=config,
    )


def compile_small_cnn(
    model: SmallCnn,
    dataset: Dataset,
    precision: "int | str | IntSpec" = 8,
    percentile: float = 99.9,
    calibration_samples: int = 200,
) -> CompiledCnn:
    """Quantize and lower a trained :class:`SmallCnn` to a
    :class:`CompiledNetwork`.

    Args:
        model: the trained FP32 network.
        dataset: calibration images are taken from its training split.
        precision: activation/weight integer format.
        percentile: calibration percentile (trained-threshold stand-in).
    """
    spec = int_spec(precision)

    # --- activation scales from a calibration batch --------------------
    record: list[np.ndarray] = []
    calib_x = dataset.train_x[:calibration_samples]
    model.forward(calib_x, record=record)
    input_calib = calibrate_percentile(calib_x, percentile)
    input_quantizer = SymmetricQuantizer.from_threshold(
        spec, input_calib.threshold
    )
    stage_scales = []
    for activations in record[:2]:
        calib = calibrate_percentile(activations, percentile)
        stage_scales.append(
            SymmetricQuantizer.from_threshold(spec, calib.threshold).scale
        )

    # --- conv1 ----------------------------------------------------------
    w1_quant = _weight_quantizer(model.conv1.weight, spec, percentile)
    psum1_scale = input_quantizer.scale * w1_quant.scale
    mult1, shift1 = requant_params_from_scale(
        psum1_scale / stage_scales[0]
    )
    bias1 = np.round(model.conv1.bias / psum1_scale).astype(np.int64)

    # --- conv2 ----------------------------------------------------------
    w2_quant = _weight_quantizer(model.conv2.weight, spec, percentile)
    psum2_scale = stage_scales[0] * w2_quant.scale
    mult2, shift2 = requant_params_from_scale(
        psum2_scale / stage_scales[1]
    )
    bias2 = np.round(model.conv2.bias / psum2_scale).astype(np.int64)

    # --- fc as 3x3 valid conv -------------------------------------------
    side = dataset.image_size // 4
    fc_weights = model.fc_weight.reshape(-1, 16, side, side)
    fc_quant = _weight_quantizer(fc_weights, spec, percentile)
    psum3_scale = stage_scales[1] * fc_quant.scale
    bias3 = np.round(model.fc_bias / psum3_scale).astype(np.int64)
    # logits keep full psum resolution via a wide output format
    logits_spec = int_spec(24)

    size = dataset.image_size
    config = CoreConfig(k=8, n=8, precision=spec)
    pool = PdpConfig("max", kernel=2)
    stages = (
        _conv_stage(
            "conv1",
            w1_quant.quantize(model.conv1.weight),
            SdpConfig(
                out_precision=spec,
                bias=bias1,
                multiplier=mult1,
                shift=shift1,
                activation="relu",
            ),
            config,
            size,
            padding=1,
        ),
        _conv_stage(
            "conv2",
            w2_quant.quantize(model.conv2.weight),
            SdpConfig(
                out_precision=spec,
                bias=bias2,
                multiplier=mult2,
                shift=shift2,
                activation="relu",
            ),
            config,
            size // 2,
            padding=1,
            pool=pool,
        ),
        _conv_stage(
            "fc",
            fc_quant.quantize(fc_weights),
            SdpConfig(out_precision=logits_spec, bias=bias3),
            config,
            side,
            pool=pool,
        ),
    )
    network = CompiledNetwork(
        name="small_cnn",
        config=config,
        precision=spec,
        code=TwosUnaryCode(),
        stages=stages,
        input_shape=(1, size, size),
        scheduling=False,
        profile=precision_profile(spec),
    )
    return CompiledCnn(network=network, input_quantizer=input_quantizer)


def evaluate_on_accelerator(
    compiled: CompiledCnn,
    images: np.ndarray,
    labels: np.ndarray,
    engine: str = "tempus",
    limit: int | None = None,
) -> float:
    """Classify images through the compiled network; returns top-1
    accuracy.

    Args:
        compiled: output of :func:`compile_small_cnn`.
        images: (N, 1, S, S) FP32 images.
        labels: (N,) targets.
        engine: any registered compute backend ("tempus", "binary",
            "tugemm", "tubgemm", ...) — accuracy is engine-independent
            (every backend computes the exact integer network).
        limit: evaluate only the first ``limit`` images.
    """
    executor = BatchExecutor(compiled.network, engine)
    if limit is not None:
        images = images[:limit]
        labels = labels[:limit]
    if len(labels) == 0:
        return 0.0
    # One batched forward pass for the whole evaluation set (the
    # quantizer is elementwise).
    codes = compiled.input_quantizer.quantize(images)
    logits, _, _ = executor.run_batch(codes)
    predictions = np.argmax(logits.reshape(len(labels), -1), axis=1)
    correct = int((predictions == np.asarray(labels)).sum())
    return correct / len(labels)
