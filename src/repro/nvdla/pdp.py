"""Planar Data Processor (PDP) — NVDLA's pooling engine.

Integer max/average pooling over (K, H, W) activation tensors and
(B, K, H, W) batches.  Average pooling is exact fixed-point: the window
sum is scaled by a rounded reciprocal, matching how the hardware avoids
a divider.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DataflowError

_MODES = ("max", "average")
#: Fixed-point bits for the average-pool reciprocal.
_RECIP_BITS = 16


@dataclass(frozen=True)
class PdpConfig:
    """One pooling pass.

    Attributes:
        mode: "max" or "average".
        kernel: square window size.
        stride: window stride (defaults to the kernel size).
        padding: zero padding on all sides.
    """

    mode: str
    kernel: int
    stride: int | None = None
    padding: int = 0

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise DataflowError(
                f"unknown pooling mode {self.mode!r}; expected {_MODES}"
            )
        if self.kernel < 1:
            raise DataflowError("pooling kernel must be >= 1")
        if self.padding < 0:
            raise DataflowError("padding must be >= 0")
        if self.stride is None:
            object.__setattr__(self, "stride", self.kernel)
        if self.stride < 1:
            raise DataflowError("stride must be >= 1")


class Pdp:
    """Behavioral PDP."""

    def __init__(self, config: PdpConfig) -> None:
        self.config = config
        self.windows_processed = 0

    def output_size(self, height: int, width: int) -> tuple[int, int]:
        config = self.config
        out_h = (height + 2 * config.padding - config.kernel) \
            // config.stride + 1
        out_w = (width + 2 * config.padding - config.kernel) \
            // config.stride + 1
        if out_h < 1 or out_w < 1:
            raise DataflowError(
                f"pooling window {config.kernel} does not fit "
                f"{height}x{width} with padding {config.padding}"
            )
        return out_h, out_w

    def apply(self, activations: np.ndarray) -> np.ndarray:
        """Pool a (K, H, W) tensor; returns int64 (K, OH, OW)."""
        values = np.asarray(activations, dtype=np.int64)
        if values.ndim != 3:
            raise DataflowError("PDP expects a (K, H, W) tensor")
        return self.apply_many(values[None])[0]

    def apply_many(self, activations: np.ndarray) -> np.ndarray:
        """Batched :meth:`apply` over a (B, K, H, W) tensor.

        Pooling treats every (image, channel) plane independently, so
        one vectorised pass covers the batch — bit-identical to
        per-image :meth:`apply`.  The result keeps the input's memory
        layout, padded or not: a channels-last batch (a stage output of
        the batched executor) pools channels-last, with no transposing
        copy.  Max pooling also keeps an integer or float input's dtype
        (the executor's int32 stage outputs stay int32, and its exact
        float psums stay float); average pooling, whose reciprocal
        multiply needs 64 bits, and any other input work in int64.
        """
        config = self.config
        values = np.asarray(activations)
        if config.mode != "max" or values.dtype.kind not in "iuf":
            values = values.astype(np.int64, copy=False)
        if values.ndim != 4:
            raise DataflowError("PDP batch expects a (B, K, H, W) tensor")
        batch, channels, height, width = values.shape
        out_h, out_w = self.output_size(height, width)

        padded = values
        if config.padding:
            # Pad max pooling with the dtype's least value (-inf for a
            # float) so padding never wins the max.  full_like keeps
            # the input's memory layout, which np.pad would not.
            pad = config.padding
            if config.mode != "max":
                fill = 0
            elif values.dtype.kind == "f":
                fill = -np.inf
            else:
                fill = np.iinfo(values.dtype).min
            padded = np.full_like(
                values, fill, shape=(batch, channels, height + 2 * pad,
                                     width + 2 * pad),
            )
            padded[:, :, pad:pad + height, pad:pad + width] = values
        # Reduce over the k x k kernel taps: each tap is one strided
        # view of the padded input holding that tap of every window.
        span_h = config.stride * (out_h - 1) + 1
        span_w = config.stride * (out_w - 1) + 1
        out = None
        for dy in range(config.kernel):
            for dx in range(config.kernel):
                tap = padded[
                    :,
                    :,
                    dy : dy + span_h : config.stride,
                    dx : dx + span_w : config.stride,
                ]
                if out is None:
                    out = tap.copy(order="K")
                elif config.mode == "max":
                    np.maximum(out, tap, out=out)
                else:
                    out += tap
        if config.mode == "average":
            recip = int(
                round((1 << _RECIP_BITS) / (config.kernel * config.kernel))
            )
            scaled = out * recip
            offset = 1 << (_RECIP_BITS - 1)
            out = np.sign(scaled) * (
                (np.abs(scaled) + offset) >> _RECIP_BITS
            )
        self.windows_processed += batch * channels * out_h * out_w
        return out
