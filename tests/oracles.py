"""Independent reference implementations the differential tests check
the program against, and the hooks they use to see inside the executor.

The references share no code with the executor or the cycle engines: a
convolution is plain int64 einsums over window positions, the gating
counts read a zero-padded copy of the weights tile by tile, the way the
MAC array sees them, and the edge-by-edge engine drivers tick a loaded
lane, cell or encoder until its stream ends.

:func:`stage_step` runs one executor stage alone, and
:func:`recorded_stages` records what every stage of a ``run_batch`` is
given and hands on.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from repro.errors import DataflowError
from repro.runtime.executor import _Step


def golden_conv2d_batched(
    activations: np.ndarray,
    weights: np.ndarray,
    stride: int = 1,
    padding: "int | tuple[int, int]" = 0,
    groups: int = 1,
) -> np.ndarray:
    """Batched reference convolution (exact int64 arithmetic).

    One einsum per kernel-window position covers the whole batch.
    Bit-identical to :func:`repro.nvdla.dataflow.golden_conv2d` applied
    per image / per group (integer addition is order-independent).

    Args:
        activations: (B, C, H, W) integer tensor.
        weights: (K, C/groups, R, S) integer tensor.
        stride: spatial stride (same both axes).
        padding: zero padding — an int, or (pad_h, pad_w) for the
            rectangular kernels of InceptionV3.
        groups: channel groups (1 = dense, C = depthwise).
    """
    activations = np.asarray(activations, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.int64)
    if activations.ndim != 4 or weights.ndim != 4:
        raise DataflowError(
            "expected (B,C,H,W) activations, (K,C,R,S) weights"
        )
    pad_h, pad_w = (
        (padding, padding) if isinstance(padding, int) else padding
    )
    if pad_h < 0 or pad_w < 0:
        raise DataflowError("padding must be >= 0")
    if stride < 1:
        raise DataflowError("stride must be >= 1")
    batch, channels, height, width = activations.shape
    kernels, group_channels, kernel_h, kernel_w = weights.shape
    if groups < 1 or channels != group_channels * groups:
        raise DataflowError(
            f"channel mismatch: activations {channels}, weights "
            f"{group_channels} x {groups} groups"
        )
    if kernels % groups:
        raise DataflowError(
            f"kernel count {kernels} not divisible by groups {groups}"
        )
    out_height = (height + 2 * pad_h - kernel_h) // stride + 1
    out_width = (width + 2 * pad_w - kernel_w) // stride + 1
    if out_height < 1 or out_width < 1:
        raise DataflowError(
            f"kernel {kernel_h}x{kernel_w} does not fit the padded "
            f"{height}x{width} input"
        )
    padded = np.pad(
        activations,
        ((0, 0), (0, 0), (pad_h, pad_h), (pad_w, pad_w)),
        mode="constant",
    )
    out = np.zeros((batch, kernels, out_height, out_width), np.int64)
    kernels_per_group = kernels // groups
    for group in range(groups):
        group_weights = weights[
            group * kernels_per_group : (group + 1) * kernels_per_group
        ]
        group_input = padded[
            :, group * group_channels : (group + 1) * group_channels
        ]
        group_out = out[
            :, group * kernels_per_group : (group + 1) * kernels_per_group
        ]
        for ky in range(kernel_h):
            for kx in range(kernel_w):
                window = group_input[
                    :,
                    :,
                    ky : ky + stride * out_height : stride,
                    kx : kx + stride * out_width : stride,
                ]
                group_out += np.einsum(
                    "kc,bcyx->bkyx",
                    group_weights[:, :, ky, kx],
                    window,
                )
    return out


def _tiled_view(weights: np.ndarray, k: int, n: int) -> np.ndarray:
    """Zero-pad a (K, C, R, S) tensor to whole tiles and expose it as a
    (groups, k, blocks, n, R, S) view — one (k, n) slice per atom tile,
    padded exactly as the MAC array sees tensor-edge atoms."""
    weights = np.asarray(weights)
    if weights.ndim != 4:
        raise DataflowError("expected (K, C, R, S) weights")
    kernels, channels, kernel_h, kernel_w = weights.shape
    groups = math.ceil(kernels / k)
    blocks = math.ceil(channels / n)
    padded = np.zeros(
        (groups * k, blocks * n, kernel_h, kernel_w), dtype=np.int64
    )
    padded[:kernels, :channels] = weights
    return padded.reshape(groups, k, blocks, n, kernel_h, kernel_w)


def tile_zero_lane_counts(
    weights: np.ndarray, k: int, n: int
) -> np.ndarray:
    """Zero-weight lanes per (group, channel-block, ky, kx) tile —
    including the zero padding for kernels/channels beyond the tensor
    edge, exactly as the PCU sees each atom.  Silent-lane cycles for a
    layer are ``(counts * effective_burst).sum() * output_pixels``."""
    tiled = _tiled_view(weights, k, n)
    return (tiled == 0).sum(axis=(1, 3))


def tile_idle_cell_counts(
    weights: np.ndarray, k: int, n: int
) -> np.ndarray:
    """All-zero weight rows (clock-gateable MAC cells) per tile — the
    binary CMAC's gating statistic: ``counts.sum() * output_pixels`` is
    the layer's ``gated_cell_cycles``."""
    tiled = _tiled_view(weights, k, n)
    return (~tiled.any(axis=3)).sum(axis=1)


def three_draw_layer_weights(layer, spec, rng) -> np.ndarray:
    """A layer's float32 weights by the mixture's plain three-draw
    formula: a Gaussian and a Laplace value for every weight, then a
    uniform picking the Laplace one below ``spec.laplace_fraction``,
    then the zero inflation."""
    sigma = float(np.sqrt(2.0 / max(layer.fan_in, 1)))
    count = layer.weight_count
    gaussian = rng.normal(0.0, sigma, size=count)
    if spec.laplace_fraction > 0.0:
        laplace = rng.laplace(0.0, sigma / np.sqrt(2.0), size=count)
        use_laplace = rng.random(count) < spec.laplace_fraction
        weights = np.where(use_laplace, laplace, gaussian)
    else:
        weights = gaussian
    if spec.zero_inflation > 0.0:
        weights[rng.random(count) < spec.zero_inflation] = 0.0
    return weights.astype(np.float32).reshape(layer.weight_shape)


def drain(encoder) -> "list[int]":
    """Tick a loaded 2s-unary encoder until its stream ends; returns
    every signed pulse it emitted."""
    pulses = []
    while encoder.busy:
        pulses.append(encoder.tick())
    return pulses


def signed_pulses(stream) -> "tuple[int, ...]":
    """A bitstream's pulses with its sign applied — the accumulator-side
    view the encoder must emit."""
    if stream.negative:
        return tuple(-pulse for pulse in stream.pulses)
    return stream.pulses


def run_to_completion(lane) -> int:
    """Tick a loaded tub multiplier lane edge by edge until its stream
    drains; returns the exact product."""
    while lane.busy:
        lane.tick()
    return lane.product


def run_burst(cell) -> "tuple[int, int]":
    """Tick a loaded tub PE cell edge by edge until its burst ends;
    returns (partial sum, cycles)."""
    cycles = 0
    while cell.busy:
        cell.tick()
        cycles += 1
    return cell.partial_sum, cycles


def stage_step(executor, index: int, shape: tuple) -> _Step:
    """Stage ``index`` of ``executor``'s network alone, for a
    (B, C, H, W) input of ``shape``: a one-stage plan bound to scratch
    of its own, so running it leaves the executor untouched.  Its psums
    are never pooled, so its :meth:`~_Step.conv_fused` returns the
    stage's unpooled output, and :meth:`~_Step.run` its pre-SDP psums
    as a channels-last (B, OH, OW, K) view in the stage's float
    dtype."""
    stages = executor.net.stages
    step = _Step(
        index, stages[index], executor._fused_stages[index], shape,
        index == len(stages) - 1,
    )
    step.bind({
        key: np.empty(math.prod(need), dtype=key[1])
        for key, need in step.needs.items()
    })
    return step


@contextmanager
def recorded_stages(executor):
    """Within the block, a list that gains ``(step, batch, residual,
    output)`` for every stage ``executor`` runs, in run order: its plan
    step, the (B, C, H, W) input and folded residual the step was
    given, and the output it handed on (pooled where the plan pools the
    step's psums)."""
    calls = []
    conv = _Step.conv_fused

    def recorded(step, batch, residual=None):
        output = conv(step, batch, residual)
        if any(step is own for own in executor._plan):
            calls.append((step, batch, residual, output))
        return output

    _Step.conv_fused = recorded
    try:
        yield calls
    finally:
        _Step.conv_fused = conv
