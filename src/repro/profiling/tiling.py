"""Tile extraction over weight tensors.

The paper pools weights into k x n = 16 x 16 tiles matching the PE-array
mapping: a tile covers k kernels by n input channels at one (ky, kx) window
position — exactly the weight block one atom burst loads.  Grouped
convolutions contribute tiles per group (each group is an independent
convolution on the core).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.latency import tile_max_magnitudes
from repro.errors import DataflowError

__all__ = ["tile_max_magnitudes", "group_stack", "tile_zero_stats"]


def group_stack(weights: np.ndarray, groups: int = 1) -> np.ndarray:
    """View a (K, C/groups, R, S) grouped-conv weight tensor as the
    (groups, K/groups, C/groups, R, S) stack of its per-group tensors."""
    weights = np.asarray(weights)
    if weights.ndim != 4:
        raise DataflowError("expected (K, C, R, S) weights")
    kernels = weights.shape[0]
    if kernels % groups:
        raise DataflowError(
            f"kernel count {kernels} not divisible by groups {groups}"
        )
    return weights.reshape((groups, kernels // groups) + weights.shape[1:])


def tile_zero_stats(
    weights: np.ndarray, k: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Zero-weight counts per tile.

    Returns:
        (zeros, lanes): int64 arrays of shape (groups, blocks, R, S) —
        the number of zero weights in each tile and the number of *real*
        lanes the tile covers (tiles at tensor edges cover fewer than
        k x n lanes; padded lanes are not counted as silent).
    """
    weights = np.asarray(weights)
    if weights.ndim != 4:
        raise DataflowError("expected (K, C, R, S) weights")
    kernels, channels, kernel_h, kernel_w = weights.shape
    groups = math.ceil(kernels / k)
    blocks = math.ceil(channels / n)
    zero_mask = np.zeros(
        (groups * k, blocks * n, kernel_h, kernel_w), dtype=np.int64
    )
    real_mask = np.zeros_like(zero_mask)
    zero_mask[:kernels, :channels] = (weights == 0).astype(np.int64)
    real_mask[:kernels, :channels] = 1
    zero_tiles = zero_mask.reshape(
        groups, k, blocks, n, kernel_h, kernel_w
    ).sum(axis=(1, 3))
    lane_tiles = real_mask.reshape(
        groups, k, blocks, n, kernel_h, kernel_w
    ).sum(axis=(1, 3))
    return zero_tiles, lane_tiles
