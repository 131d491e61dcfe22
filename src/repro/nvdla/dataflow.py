"""Direct-convolution dataflow shared by NVDLA's CC and Tempus Core.

Terminology follows the NVDLA primer: input feature and weight cubes are
split into **1x1xn element atoms** along the channel dimension.  For every
output pixel the sequencer walks the kernel window (R x S positions) and the
channel blocks; each step broadcasts one feature atom to all k PE cells,
each cell holding the matching weight atom of its own kernel.  The CACC sums
the per-atom partial sums into the final output pixel.

Tempus Core keeps this schedule *unchanged* — only the per-atom MAC
execution differs (1 cycle binary vs a multi-cycle tub burst) — which is the
paper's dataflow-compliance claim.  Both engines are verified against
:func:`golden_conv2d`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import DataflowError
from repro.utils.intrange import IntSpec


@dataclass(frozen=True)
class ConvShape:
    """A convolution layer's geometry (single batch).

    Attributes:
        in_channels / in_height / in_width: input cube C, H, W.
        out_channels: kernel count K.
        kernel_h / kernel_w: R, S.
        stride: spatial stride (same both axes).
        padding: zero padding (same all sides).
    """

    in_channels: int
    in_height: int
    in_width: int
    out_channels: int
    kernel_h: int
    kernel_w: int
    stride: int = 1
    padding: int = 0

    def __post_init__(self) -> None:
        for name in (
            "in_channels",
            "in_height",
            "in_width",
            "out_channels",
            "kernel_h",
            "kernel_w",
            "stride",
        ):
            if getattr(self, name) < 1:
                raise DataflowError(f"{name} must be >= 1")
        if self.padding < 0:
            raise DataflowError("padding must be >= 0")
        if self.out_height < 1 or self.out_width < 1:
            raise DataflowError(
                "kernel does not fit the padded input "
                f"({self.kernel_h}x{self.kernel_w} over "
                f"{self.in_height}x{self.in_width} pad {self.padding})"
            )

    @property
    def out_height(self) -> int:
        return (
            self.in_height + 2 * self.padding - self.kernel_h
        ) // self.stride + 1

    @property
    def out_width(self) -> int:
        return (
            self.in_width + 2 * self.padding - self.kernel_w
        ) // self.stride + 1

    @property
    def output_pixels(self) -> int:
        return self.out_height * self.out_width

    @property
    def macs(self) -> int:
        """Total multiply-accumulates in the layer."""
        return (
            self.output_pixels
            * self.out_channels
            * self.in_channels
            * self.kernel_h
            * self.kernel_w
        )

    def activation_shape(self) -> tuple[int, int, int]:
        return (self.in_channels, self.in_height, self.in_width)

    def weight_shape(self) -> tuple[int, int, int, int]:
        return (
            self.out_channels,
            self.in_channels,
            self.kernel_h,
            self.kernel_w,
        )

    def channel_blocks(self, n: int) -> int:
        """Number of 1x1xn atoms along the channel axis."""
        return math.ceil(self.in_channels / n)

    def kernel_groups(self, k: int) -> int:
        """Number of k-wide kernel groups."""
        return math.ceil(self.out_channels / k)

    def atoms_per_pixel(self, n: int) -> int:
        return self.channel_blocks(n) * self.kernel_h * self.kernel_w


def conv_atoms(
    kernels: int,
    channels: int,
    kernel_h: int,
    kernel_w: int,
    out_pixels: int,
    k: int,
    n: int,
) -> int:
    """Atoms the CSC issues for one conv layer (group) — the single
    source of the binary cycle model's work count, shared by
    :meth:`ConvShape`-driven cores, the lowering pass and the runtime
    backends so the three layers cannot drift apart."""
    return (
        math.ceil(kernels / k)
        * out_pixels
        * math.ceil(channels / n)
        * kernel_h
        * kernel_w
    )


@dataclass(frozen=True)
class Atom:
    """One scheduling step: a 1x1xn feature slice against the matching
    weight slices of one kernel group.

    Attributes:
        group: kernel-group index (kernels group*k .. group*k+k-1).
        out_y / out_x: output pixel.
        ky / kx: kernel window position.
        c0: first channel of the block.
        channels: block size (n, possibly clipped at the tensor edge).
        in_y / in_x: input position (may be outside bounds when padded).
        in_bounds: False when the window position falls in the padding.
    """

    group: int
    out_y: int
    out_x: int
    ky: int
    kx: int
    c0: int
    channels: int
    in_y: int
    in_x: int
    in_bounds: bool


def iter_atoms(shape: ConvShape, k: int, n: int) -> Iterator[Atom]:
    """Yield the full atom schedule in NVDLA order: kernel group (outer),
    output pixel, kernel window position, channel block (inner)."""
    for group in range(shape.kernel_groups(k)):
        for out_y in range(shape.out_height):
            for out_x in range(shape.out_width):
                for ky in range(shape.kernel_h):
                    in_y = out_y * shape.stride - shape.padding + ky
                    for kx in range(shape.kernel_w):
                        in_x = out_x * shape.stride - shape.padding + kx
                        in_bounds = (
                            0 <= in_y < shape.in_height
                            and 0 <= in_x < shape.in_width
                        )
                        for c0 in range(0, shape.in_channels, n):
                            channels = min(n, shape.in_channels - c0)
                            yield Atom(
                                group=group,
                                out_y=out_y,
                                out_x=out_x,
                                ky=ky,
                                kx=kx,
                                c0=c0,
                                channels=channels,
                                in_y=in_y,
                                in_x=in_x,
                                in_bounds=in_bounds,
                            )


def feature_atom(
    activations: np.ndarray, atom: Atom, n: int
) -> np.ndarray:
    """Extract the 1x1xn feature slice for an atom (zeros when padded)."""
    data = np.zeros(n, dtype=np.int64)
    if atom.in_bounds:
        data[: atom.channels] = activations[
            atom.c0 : atom.c0 + atom.channels, atom.in_y, atom.in_x
        ]
    return data


def weight_atoms(
    weights: np.ndarray, atom: Atom, k: int, n: int
) -> np.ndarray:
    """Extract the (k, n) weight block for an atom's kernel group (zeros
    for kernels/channels beyond the tensor edge)."""
    out_channels = weights.shape[0]
    block = np.zeros((k, n), dtype=np.int64)
    kernel0 = atom.group * k
    kernels = min(k, out_channels - kernel0)
    block[:kernels, : atom.channels] = weights[
        kernel0 : kernel0 + kernels,
        atom.c0 : atom.c0 + atom.channels,
        atom.ky,
        atom.kx,
    ]
    return block


def validate_layer(
    shape: ConvShape,
    activations: np.ndarray,
    weights: np.ndarray,
    precision: IntSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """Check tensor shapes and ranges against a layer spec."""
    activations = np.asarray(activations)
    weights = np.asarray(weights)
    if tuple(activations.shape) != shape.activation_shape():
        raise DataflowError(
            f"activation shape {activations.shape} != "
            f"{shape.activation_shape()}"
        )
    if tuple(weights.shape) != shape.weight_shape():
        raise DataflowError(
            f"weight shape {weights.shape} != {shape.weight_shape()}"
        )
    return (
        precision.check_array(activations),
        precision.check_array(weights),
    )


def golden_conv2d(
    activations: np.ndarray,
    weights: np.ndarray,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Reference direct convolution (exact int64 arithmetic).

    Args:
        activations: (C, H, W) integer tensor.
        weights: (K, C, R, S) integer tensor.
    """
    activations = np.asarray(activations, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.int64)
    if activations.ndim != 3 or weights.ndim != 4:
        raise DataflowError("expected (C,H,W) activations, (K,C,R,S) weights")
    channels, height, width = activations.shape
    kernels, w_channels, kernel_h, kernel_w = weights.shape
    if channels != w_channels:
        raise DataflowError(
            f"channel mismatch: activations {channels}, weights {w_channels}"
        )
    shape = ConvShape(
        in_channels=channels,
        in_height=height,
        in_width=width,
        out_channels=kernels,
        kernel_h=kernel_h,
        kernel_w=kernel_w,
        stride=stride,
        padding=padding,
    )
    padded = np.pad(
        activations,
        ((0, 0), (padding, padding), (padding, padding)),
        mode="constant",
    )
    out = np.zeros((kernels, shape.out_height, shape.out_width), np.int64)
    for ky in range(kernel_h):
        for kx in range(kernel_w):
            window = padded[
                :,
                ky : ky + stride * shape.out_height : stride,
                kx : kx + stride * shape.out_width : stride,
            ]
            out += np.einsum(
                "kc,cyx->kyx", weights[:, :, ky, kx], window
            )
    return out


def im2col(
    activations: np.ndarray, shape: ConvShape
) -> np.ndarray:
    """Lower a (C,H,W) tensor to the (out_pixels, C*R*S) patch matrix —
    the GEMM view of convolution (Sec. II-A).  Rows walk output pixels
    row-major; each row flattens its patch channel-major (C, R, S)."""
    activations = np.asarray(activations, dtype=np.int64)
    padded = np.pad(
        activations,
        ((0, 0), (shape.padding, shape.padding),
         (shape.padding, shape.padding)),
        mode="constant",
    )
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, (shape.kernel_h, shape.kernel_w), axis=(1, 2)
    )[:, :: shape.stride, :: shape.stride]
    # (C, OH, OW, R, S) -> (OH, OW, C, R, S) -> (P, C*R*S)
    return np.ascontiguousarray(
        windows[:, : shape.out_height, : shape.out_width]
        .transpose(1, 2, 0, 3, 4)
        .reshape(
            shape.output_pixels,
            shape.in_channels * shape.kernel_h * shape.kernel_w,
        )
    )
