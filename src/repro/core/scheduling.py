"""Burst-aware tile scheduling (the paper's "custom dataflows and compiler
optimizations" future work, Sec. VI).

A Tempus burst lasts as long as the largest weight magnitude in its k x n
tile, so one outlier weight stalls 255 other lanes.  Because the CSC is
free to walk channels and kernels in any fixed order (a data-layout
decision, not a hardware change), permuting channels/kernels so that
large-magnitude weights share tiles provably reduces total burst cycles:

For a fixed block size b, partitioning values into blocks to minimise the
sum of block maxima is solved by sorting — blocks of consecutive sorted
values make each block's maximum as small as the order statistics allow.
We apply that independently to the channel axis (blocks of n) and the
kernel axis (groups of k), using each channel's / kernel's own maximum
magnitude as the sort key.

The permutation is semantics-preserving: activations are reordered with
the same channel permutation and outputs carry the kernel permutation,
which the accumulator unwinds for free (it is just an address mapping).
:func:`search_stage_orders` returns the orders; lowering stores them on
each ``StagePlan``, and ``StagePlan.scheduled_weights()`` applies them.
"""

from __future__ import annotations

import numpy as np

# Called by its compatibility name so a tracer can wrap it here.
from repro.core.latency import cached_burst_cycle_map
from repro.errors import DataflowError
from repro.nvdla.config import CoreConfig
from repro.unary.encoding import TwosUnaryCode, UnaryCode


def search_stage_orders(
    weights: np.ndarray,
    config: CoreConfig,
    code: UnaryCode | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Search every group of a stage in one vectorised pass.

    Each group is searched independently (its own sort keys and its own
    baseline), exactly as if it were scheduled alone; the leading group
    axis only batches the work.

    Args:
        weights: (G, K, C, R, S) integer weights, one (K, C, R, S)
            tensor per group.
        config: array geometry (tile size k x n).
        code: unary code (default 2s-unary).

    Returns:
        ``(kernel_orders, channel_orders, baselines, optimized)``: the
        read-only (G, K) and (G, C) permutations — identity rows for
        every group the sort saves no cycles on — and each group's
        per-pixel burst cycles before and after them.
    """
    weights = np.asarray(weights)
    if weights.ndim != 5:
        raise DataflowError("expected (G, K, C, R, S) weights")
    code = code if code is not None else TwosUnaryCode()
    groups, kernels, channels = weights.shape[:3]

    # One magnitude pass serves the sort keys and both burst maps (a
    # map reads only |w|), narrowed to uint8 when every magnitude fits:
    # <=8-bit codes have |w| <= 128.
    magnitudes = np.abs(weights.astype(np.int64, copy=False))
    # Sort keys: the largest magnitude each kernel / channel ever streams.
    pair_max = magnitudes.max(axis=(3, 4))
    if pair_max.size and pair_max.max() < 256:
        magnitudes = magnitudes.astype(np.uint8)
    kernel_orders = np.argsort(pair_max.max(axis=2), axis=1,
                               kind="stable")[:, ::-1]
    channel_orders = np.argsort(pair_max.max(axis=1), axis=1,
                                kind="stable")[:, ::-1]

    baselines = cached_burst_cycle_map(magnitudes, config, code).sum(
        axis=(1, 2, 3, 4)
    )
    scheduled = magnitudes[
        np.arange(groups)[:, None, None],
        kernel_orders[:, :, None],
        channel_orders[:, None, :],
    ]
    optimized = cached_burst_cycle_map(scheduled, config, code).sum(
        axis=(1, 2, 3, 4)
    )

    # Sorting never helps degenerate tensors (single tile); those groups
    # keep the identity layout so their schedule is a no-op.
    identity = (optimized >= baselines)[:, None]
    kernel_orders = np.where(identity, np.arange(kernels), kernel_orders)
    channel_orders = np.where(identity, np.arange(channels),
                              channel_orders)
    optimized = np.minimum(optimized, baselines)
    for array in (kernel_orders, channel_orders, baselines, optimized):
        array.setflags(write=False)
    return kernel_orders, channel_orders, baselines, optimized


def model_schedule_savings(
    model, config: CoreConfig, code: UnaryCode | None = None
) -> list[tuple[str, int, int, float]]:
    """Per-layer scheduling gains for a quantized model.

    Returns:
        (layer name, baseline cycles, optimized cycles, speedup) rows,
        with cycles weighted by the layer's output pixels.
    """
    from repro.profiling.tiling import group_stack

    rows = []
    for layer, codes in model.iter_weight_tensors():
        pixels = layer.conv_shape().output_pixels
        _, _, baselines, optimized = search_stage_orders(
            group_stack(codes, layer.groups), config, code
        )
        baseline = pixels * int(baselines.sum())
        optimized = pixels * int(optimized.sum())
        rows.append(
            (
                layer.name,
                baseline,
                optimized,
                baseline / max(optimized, 1),
            )
        )
    return rows
