"""Analytic latency model for Tempus Core.

The number of compute cycles for a k x n array burst is determined by the
largest weight magnitude present in the array (Sec. III); this module
computes burst maps and layer totals vectorised, which is what makes
whole-CNN profiling (Figs. 7/8, Sec. V-C) fast.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DataflowError
from repro.nvdla.config import CoreConfig
from repro.nvdla.dataflow import ConvShape
from repro.unary.encoding import TwosUnaryCode, UnaryCode
from repro.utils.intrange import IntSpec


def worst_case_cycles(
    precision: IntSpec, code: UnaryCode | None = None
) -> int:
    """Worst-case burst length for a precision: INT8 -> 64, INT4 -> 4,
    INT2 -> 1 (2s-unary)."""
    code = code if code is not None else TwosUnaryCode()
    return code.cycles_for_magnitude(precision.max_magnitude)


def _block_max(magnitudes: np.ndarray, size: int, axis: int) -> np.ndarray:
    """Maximum over consecutive blocks of ``size`` along a negative
    ``axis``; a short last block covers what is left of the axis."""
    length = magnitudes.shape[axis]
    if length % size == 0:
        split = (
            magnitudes.shape[:axis]
            + (length // size, size)
            + magnitudes.shape[axis:][1:]
        )
        return magnitudes.reshape(split).max(axis=axis)
    starts = np.arange(0, length, size)
    return np.maximum.reduceat(magnitudes, starts, axis=axis)


def tile_max_magnitudes(
    weights: np.ndarray, k: int, n: int
) -> np.ndarray:
    """Largest |weight| per (group, channel-block, ky, kx) tile.

    Leading axes are carried through, so a whole stage's groups stacked
    as ``(G, K, C, R, S)`` are reduced in one pass.  Maxima are taken
    over the real weights only: every tile holds at least one real
    weight and |w| >= 0, so the array's zero padding of edge tiles never
    changes a maximum.

    Args:
        weights: (..., K, C, R, S) integer weights; unsigned input is
            taken as magnitudes already and reduced in its own dtype.
        k / n: array geometry (kernels per group / channels per block).

    Returns:
        int64 array of shape (..., groups, channel_blocks, R, S).
    """
    weights = np.asarray(weights)
    if weights.ndim < 4:
        raise DataflowError("expected (..., K, C, R, S) weights")
    magnitudes = (
        weights if weights.dtype.kind == "u"
        else np.abs(weights.astype(np.int64, copy=False))
    )
    maxima = _block_max(_block_max(magnitudes, k, -4), n, -3)
    return maxima.astype(np.int64, copy=False)


def burst_cycle_map(
    weights: np.ndarray,
    config: CoreConfig,
    code: UnaryCode | None = None,
) -> np.ndarray:
    """Burst length of every (group, channel-block, ky, kx) tile,
    including the minimum 1 cycle for all-zero tiles and the PCU's
    cache-in/out overhead.

    ``weights`` is (..., K, C, R, S) and the map is
    (..., groups, channel_blocks, R, S): a stacked stage
    ``(G, K, C, R, S)`` gets every group's map from one call, and its
    ``sum()`` is the stage's per-pixel burst cycles."""
    code = code if code is not None else TwosUnaryCode()
    maxima = tile_max_magnitudes(weights, config.k, config.n)
    return code.step_cycles_array(maxima) + config.burst_overhead


#: Compatibility name of :func:`burst_cycle_map`.  A map is one
#: vectorised pass over the weights, cheaper than any lookup keyed on
#: their storage or content, so nothing is cached; tracers wrap this
#: name in :mod:`repro.runtime.backends` and :mod:`repro.core.scheduling`.
cached_burst_cycle_map = burst_cycle_map


def burst_map_cache_stats() -> dict:
    """Compatibility alias of the retired burst-map cache's counters:
    always zero, since no lookup is cached."""
    return {"hits": 0, "misses": 0}


def clear_burst_map_cache() -> None:
    """Compatibility alias of the retired burst-map cache: a no-op."""


def configure_burst_map_disk_cache(path=None) -> None:
    """Compatibility alias of the retired on-disk burst-map tier.

    ``None`` (tier off) is a no-op.  A directory is refused: burst maps
    are computed, never stored."""
    if path is not None:
        raise DataflowError(
            "the on-disk burst-map cache was removed; burst maps are "
            "computed where they are needed"
        )


def layer_burst_cycles(
    shape: ConvShape,
    weights: np.ndarray,
    config: CoreConfig,
    code: UnaryCode | None = None,
) -> int:
    """Total PCU compute cycles for one layer: every burst repeats for every
    output pixel."""
    per_pixel = int(burst_cycle_map(weights, config, code).sum())
    return per_pixel * shape.output_pixels
