"""Pluggable compute-backend registry for the network runtime.

The paper family puts four MAC-unit designs on the same axis: the
binary CMAC (NVDLA's value-independent baseline), the Tempus PCU (the
paper's temporal-unary convolution core), and the two GEMM-dataflow
ancestors tuGEMM (ISCAS'23, pure unary x pure unary) and tubGEMM
(ISVLSI'23, binary x 2s-unary).  A :class:`ComputeBackend` bundles
everything the runtime needs to execute a compiled network on one of
those designs:

* **core construction** (:meth:`ComputeBackend.make_core`) — the object
  the per-image reference path drives layer by layer.  Binary and
  tempus return the real simulated cores (all execution modes); the
  GEMM backends return a :class:`GemmConvCore` adapter that lowers each
  conv layer to im2col and runs it through the *actual*
  :class:`~repro.gemm.base.GemmEngine` implementation.
* **cycle model** (:meth:`ComputeBackend.cycle_line`) — a conv
  stage's cycles are affine in its output pixels,
  ``per_pixel * out_pixels + fixed``, with both terms fixed by the
  compiled weights.  Value-aware for the temporal designs: the slope is
  derived from the actual quantized weight magnitudes through the
  burst map (:func:`~repro.core.latency.burst_cycle_map`), so zero and
  small-magnitude operands cost fewer cycles (tubGEMM's
  "sparsity-effective" claim), not the worst-case bound.  The binary
  CMAC stays value-independent (one atom per cycle).
* **energy coefficients** (:attr:`ComputeBackend.array`) — which
  synthesized array's power drives the per-network energy estimate
  (:func:`repro.profiling.energy.network_energy`).

Backends register by name (:func:`register_backend`) so new MAC-unit
designs plug into the whole stack — lowering, batched execution,
per-image reference, sharded serving, the CLI and the benchmarks —
without touching the runtime.  :func:`check_backend` is the *single*
name-validation point; every layer raises the same
:class:`~repro.errors.DataflowError` listing the registered backends.

Per-stage mixing: a :class:`BackendProfile` names a backend per layer
position (first / interior / last), composing with
:class:`~repro.quant.profile.PrecisionProfile` — e.g. binary INT8 edge
stages around tubGEMM INT4 interior stages.  Outputs are bit-identical
across backends by construction (every backend computes the exact
integer convolution); only cycles and energy differ.
"""

from __future__ import annotations

import dataclasses
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

# Called by its compatibility name so a tracer can wrap it here.
from repro.core.latency import cached_burst_cycle_map
from repro.errors import DataflowError
from repro.nvdla.config import CoreConfig
from repro.nvdla.conv_core import ConvResult
from repro.nvdla.dataflow import ConvShape, conv_atoms, im2col
from repro.unary.encoding import PureUnaryCode, TwosUnaryCode, UnaryCode

#: Backend assumed when a compiled stage carries no explicit backend
#: (networks lowered before the registry existed).
DEFAULT_BACKEND = "tempus"


class ComputeBackend(ABC):
    """One MAC-unit design, as seen by the network runtime.

    Attributes:
        name: registry key (lower-case).
        description: one-line design summary.
        temporal: True when the cycle cost is value-dependent (derived
            from operand magnitudes); False for fixed-latency designs.
        array: which synthesized array powers the energy model —
            ``"binary"`` (CMAC grid) or ``"tub"`` (temporal PE array).
    """

    name: str = "abstract"
    description: str = ""
    temporal: bool = False
    array: str = "binary"

    # -- cycle model ---------------------------------------------------
    @abstractmethod
    def cycle_line(
        self,
        weights: np.ndarray,
        config: CoreConfig,
        code: UnaryCode,
    ) -> "tuple[int, int]":
        """Per-image cycles of one conv stage on this backend, as the
        affine line ``(per_pixel, fixed)``: the stage costs
        ``per_pixel * out_pixels + fixed`` cycles.  Both terms depend
        only on the compiled weights and the stage configuration, so
        :class:`~repro.runtime.executor.BatchExecutor` derives every
        stage's line once, when it is constructed.

        Args:
            weights: one group's (K, C, R, S) quantized weight tensor,
                or a stage's groups stacked as (..., K, C, R, S)
                (in tile order, as the array streams them).  A stack
                returns the sum of its groups' lines, so per-group
                fixed terms count once per group.
            config: the stage's array geometry/precision.
            code: the network's unary code (temporal backends may
                substitute their own — see :meth:`cycle_code`).
        """

    def conv_cycles(
        self,
        weights: np.ndarray,
        out_pixels: int,
        config: CoreConfig,
        code: UnaryCode,
    ) -> int:
        """:meth:`cycle_line` evaluated at ``out_pixels``."""
        per_pixel, fixed = self.cycle_line(weights, config, code)
        return per_pixel * out_pixels + fixed

    def layer_cycles(
        self,
        stage,
        weights: np.ndarray,
        code: UnaryCode,
        out_pixels: "int | None" = None,
    ) -> int:
        """Per-image cycles of one group (or a stack of groups, see
        :meth:`cycle_line`) of a lowered
        :class:`~repro.runtime.lowering.StagePlan`.

        ``out_pixels`` overrides the layer's nominal output-pixel count
        for dynamic-shape stages (autoregressive decode: the token axis
        of a linear stage grows per step, and each token is one output
        pixel); None keeps the compiled geometry.
        """
        layer = stage.layer
        if out_pixels is None:
            out_pixels = layer.out_height * layer.out_width
        return self.conv_cycles(weights, out_pixels, stage.config, code)

    # -- reference-path core -------------------------------------------
    @abstractmethod
    def make_core(self, config: CoreConfig, code: UnaryCode, mode: str):
        """A core object (``run_layer(activations, weights, stride,
        padding) -> ConvResult``) for the per-image reference path."""


class ReplayedUnaryCode(UnaryCode):
    """Latency model of tuGEMM's double streaming: the weight-side
    pure-unary train replays once per activation pulse, so a magnitude-m
    weight costs ``replay * m`` cycles, where ``replay`` bounds the
    activation train length (the activation format's max magnitude).

    This is a cycle model, not a codec — the "encoding" is the fully
    replayed train.  Using a :class:`UnaryCode` keeps tuGEMM accounting
    inside the shared burst-map machinery.
    """

    def __init__(self, replay: int) -> None:
        if replay < 1:
            raise DataflowError(f"replay factor must be >= 1, got {replay}")
        self.replay = int(replay)
        self.name = f"unary-replay{self.replay}x"

    def encode_magnitude(self, magnitude: int) -> tuple[int, ...]:
        return (1,) * (int(magnitude) * self.replay)

    def cycles_for_magnitude(self, magnitude: int) -> int:
        return int(magnitude) * self.replay

    def _cycles_array_from_magnitude(self, mags: np.ndarray) -> np.ndarray:
        return mags * self.replay

    def _magnitude_after(
        self, mags: np.ndarray, cycles: np.ndarray
    ) -> np.ndarray:
        return np.maximum(mags - cycles // self.replay, 0)


class GemmConvCore:
    """Per-image conv adapter over a real :class:`GemmEngine`.

    Each layer is lowered to im2col and multiplied through the actual
    gemm implementation (exact integer output — bit-identical to the
    golden convolution), while cycles come from the owning backend's
    tile-level model, which is what the batched executor accounts with
    — so the per-image and batched paths agree on outputs *and* cycles
    by construction.
    """

    def __init__(
        self,
        backend: "ComputeBackend",
        engine,
        config: CoreConfig,
        code: UnaryCode,
    ) -> None:
        self.backend = backend
        self.engine = engine
        self.config = config
        self.code = code

    def run_layer(
        self,
        activations: np.ndarray,
        weights: np.ndarray,
        stride: int = 1,
        padding: int = 0,
    ) -> ConvResult:
        activations = np.asarray(activations)
        weights = np.asarray(weights)
        if activations.ndim != 3 or weights.ndim != 4:
            raise DataflowError(
                "expected (C,H,W) activations and (K,C,R,S) weights"
            )
        channels, height, width = activations.shape
        kernels, w_channels, kernel_h, kernel_w = weights.shape
        if channels != w_channels:
            raise DataflowError(
                f"channel mismatch: {channels} activations vs "
                f"{w_channels} weights"
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
        patches = im2col(activations, shape)
        columns = weights.reshape(kernels, -1).T
        product = self.engine.multiply(patches, columns)
        output = np.ascontiguousarray(
            product.output.T.reshape(
                kernels, shape.out_height, shape.out_width
            )
        )
        return ConvResult(
            output=output,
            # The engine's native latency assumes a free-standing M x P
            # outer-product array; mapped onto the DLA's k x n geometry
            # the backend's tile model is authoritative (and shared
            # with the batched executor).
            cycles=self.backend.conv_cycles(
                weights, shape.output_pixels, self.config, self.code
            ),
            atoms=shape.kernel_groups(self.config.k)
            * shape.output_pixels
            * shape.atoms_per_pixel(self.config.n),
            macs=product.macs,
        )


def _group_count(weights: np.ndarray) -> int:
    """Groups in a (..., K, C, R, S) weight stack (1 for one tensor)."""
    if np.ndim(weights) < 4:
        raise DataflowError("expected (..., K, C, R, S) weights")
    return math.prod(np.shape(weights)[:-4])


def _flat_config(config: CoreConfig) -> CoreConfig:
    """The GEMM baselines have no PCU operand cache, so their steps
    carry no per-burst caching overhead."""
    if config.burst_overhead == 0:
        return config
    return dataclasses.replace(config, burst_overhead=0)


class BinaryBackend(ComputeBackend):
    """NVDLA's binary CMAC grid: one atom per cycle, value-independent."""

    name = "binary"
    description = "binary CMAC grid (value-independent, 1 atom/cycle)"
    temporal = False
    array = "binary"

    def cycle_line(self, weights, config, code) -> "tuple[int, int]":
        groups = _group_count(weights)
        kernels, channels, kernel_h, kernel_w = weights.shape[-4:]
        atoms = conv_atoms(
            kernels, channels, kernel_h, kernel_w, 1, config.k, config.n
        )
        return groups * atoms, groups * config.pipeline_latency

    def make_core(self, config, code, mode):
        from repro.nvdla.conv_core import ConvolutionCore

        return ConvolutionCore(config, mode=mode)


class TempusBackend(ComputeBackend):
    """Tempus Core's PCU: 2s-unary weight streaming inside the NVDLA
    dataflow; burst length = the tile's largest weight magnitude."""

    name = "tempus"
    description = "Tempus PCU (2s-unary bursts in the NVDLA dataflow)"
    temporal = True
    array = "tub"

    def cycle_line(self, weights, config, code) -> "tuple[int, int]":
        per_pixel = int(cached_burst_cycle_map(weights, config, code).sum())
        fixed = config.pipeline_latency + 1
        return per_pixel, _group_count(weights) * fixed

    def make_core(self, config, code, mode):
        from repro.core.tempus_core import TempusCore

        return TempusCore(config, mode=mode, code=code)


class GemmBackend(ComputeBackend):
    """Common tile accounting for the GEMM-dataflow baselines: one
    outer-product step per (kernel-group, channel-block, ky, kx) tile
    per output pixel — no PCU operand cache, no output pipeline
    register — with the step length defined by the design's
    :meth:`cycle_code`."""

    temporal = True
    array = "tub"
    #: The operand codec the design streams (subclasses override).
    code: UnaryCode = TwosUnaryCode()

    def cycle_code(self, config: CoreConfig) -> UnaryCode:
        """The latency law of one tile step (defaults to the codec)."""
        return self.code

    def _engine(self, precision):
        """The real :class:`~repro.gemm.base.GemmEngine` the per-image
        reference path drives."""
        raise NotImplementedError

    def cycle_line(self, weights, config, code) -> "tuple[int, int]":
        per_pixel = int(
            cached_burst_cycle_map(
                weights, _flat_config(config), self.cycle_code(config)
            ).sum()
        )
        return per_pixel, 0

    def make_core(self, config, code, mode):
        _check_gemm_mode(self.name, mode)
        return GemmConvCore(
            self, self._engine(config.precision), config, code
        )


class TubGemmBackend(GemmBackend):
    """tubGEMM: binary activations x 2s-unary temporal weights; a tile
    step lasts ``max(1, ceil(max|w| / 2))`` cycles."""

    name = "tubgemm"
    description = "tubGEMM (binary x 2s-unary outer-product, ISVLSI'23)"
    #: The design is defined by 2s-unary weight streaming.
    code = TwosUnaryCode()

    def _engine(self, precision):
        from repro.gemm.tubgemm import TubGemm

        return TubGemm(precision)


class TuGemmBackend(GemmBackend):
    """tuGEMM: both operands stream pure-unary; the weight train
    replays once per activation pulse, so a tile step costs
    ``max(1, act_bound * max|w|)`` cycles, with the activation side
    bounded by the stage format's max magnitude (the weight side is
    value-aware).  The quadratic latency that motivated tubGEMM."""

    name = "tugemm"
    description = "tuGEMM (pure unary x pure unary outer-product, ISCAS'23)"
    #: The design streams pure unary on both sides.
    code = PureUnaryCode()

    def cycle_code(self, config: CoreConfig) -> UnaryCode:
        return ReplayedUnaryCode(config.precision.max_magnitude)

    def _engine(self, precision):
        from repro.gemm.tugemm import TuGemm

        return TuGemm(precision)


def _check_gemm_mode(name: str, mode: str) -> None:
    if mode != "fast":
        raise DataflowError(
            f"backend {name!r} has no {mode!r} simulation mode; the "
            "gemm reference path runs the real GemmEngine (use "
            "mode='fast')"
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: "dict[str, ComputeBackend]" = {}


def register_backend(
    backend: ComputeBackend, replace: bool = False
) -> ComputeBackend:
    """Register a backend under its (lower-cased) name.

    Args:
        backend: the :class:`ComputeBackend` instance.
        replace: allow re-registering an existing name (for
            experiments that refine a built-in design).
    """
    name = str(backend.name).strip().lower()
    if not name:
        raise DataflowError("backend name must be non-empty")
    if "/" in name:
        raise DataflowError(
            f"backend name {name!r} may not contain '/' — that is the "
            "'first/interior/last' mixed-profile delimiter"
        )
    if backend.array not in ("binary", "tub"):
        raise DataflowError(
            f"backend {name!r} declares unknown power array "
            f"{backend.array!r} (expected 'binary' or 'tub')"
        )
    if name in _REGISTRY and not replace:
        raise DataflowError(
            f"backend {name!r} is already registered "
            "(pass replace=True to override)"
        )
    _REGISTRY[name] = backend
    return backend


def registered_backends() -> tuple:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def check_backend(name) -> str:
    """Validate a backend/engine name; returns the canonical key.

    This is the single validation point for the whole stack
    (executor, runner, sharded serving, benchmarks, CLI): every layer
    raises this same error, listing the registered backends.
    """
    if isinstance(name, ComputeBackend):
        name = name.name
    if not isinstance(name, str):
        raise DataflowError(
            f"compute backend must be a name, got {type(name).__name__}; "
            f"registered backends: {', '.join(registered_backends())}"
        )
    key = name.strip().lower()
    if key not in _REGISTRY:
        raise DataflowError(
            f"unknown compute backend {name!r}; registered backends: "
            f"{', '.join(registered_backends())}"
        )
    return key


def get_backend(name) -> ComputeBackend:
    """Resolve a backend by name (see :func:`check_backend`)."""
    return _REGISTRY[check_backend(name)]


register_backend(BinaryBackend())
register_backend(TempusBackend())
register_backend(TuGemmBackend())
register_backend(TubGemmBackend())


# ----------------------------------------------------------------------
# Per-stage backend profiles
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BackendProfile:
    """Backend of every layer in a network (mirror of
    :class:`~repro.quant.profile.PrecisionProfile`).

    Attributes:
        name: profile identifier.
        interior: backend of the interior (hidden) layers.
        first: optional override for the first layer (None = interior).
        last: optional override for the last layer (None = interior).
    """

    name: str
    interior: str
    first: "str | None" = None
    last: "str | None" = None

    def __post_init__(self) -> None:
        if not self.name:
            raise DataflowError("backend profile name must be non-empty")
        object.__setattr__(self, "interior", check_backend(self.interior))
        for edge in ("first", "last"):
            value = getattr(self, edge)
            if value is not None:
                value = check_backend(value)
                object.__setattr__(
                    self, edge, None if value == self.interior else value
                )

    @property
    def is_uniform(self) -> bool:
        return self.first is None and self.last is None

    def spec_for(self, index: int, count: int) -> str:
        """Backend of layer ``index`` in a ``count``-layer network
        (single-layer networks: the last-layer override wins)."""
        if count < 1:
            raise DataflowError("layer count must be >= 1")
        if not 0 <= index < count:
            raise DataflowError(f"layer index {index} outside [0, {count})")
        if index == count - 1 and self.last is not None:
            return self.last
        if index == 0 and self.first is not None:
            return self.first
        return self.interior

    def describe(self) -> str:
        """``"tempus"`` for uniform profiles,
        ``"binary/tubgemm/binary"`` (first/interior/last) for mixed."""
        if self.is_uniform:
            return self.interior
        first = self.first or self.interior
        last = self.last or self.interior
        return f"{first}/{self.interior}/{last}"


def uniform_backend_profile(name) -> BackendProfile:
    key = check_backend(name)
    return BackendProfile(key, key)


def backend_profile(value) -> BackendProfile:
    """Resolve anything backend-shaped into a :class:`BackendProfile`.

    Accepts a profile, a :class:`ComputeBackend`, a registered name
    (``"tubgemm"``), or a mixed ``"first/interior/last"`` spec
    (``"binary/tubgemm/binary"``) — the form the CLI's ``--backend``
    flag takes.
    """
    if isinstance(value, BackendProfile):
        return value
    if isinstance(value, ComputeBackend):
        return uniform_backend_profile(value.name)
    if isinstance(value, str) and "/" in value:
        parts = [part.strip() for part in value.split("/")]
        if len(parts) != 3 or not all(parts):
            raise DataflowError(
                f"mixed backend spec {value!r} must be "
                "'first/interior/last' (e.g. 'binary/tubgemm/binary')"
            )
        first, interior, last = parts
        return BackendProfile(
            value.strip().lower(), interior, first=first, last=last
        )
    return uniform_backend_profile(value)


def resolve_stage_backends(net, engine=None) -> tuple:
    """Per-stage :class:`ComputeBackend` objects for a compiled network.

    Args:
        net: a :class:`~repro.runtime.lowering.CompiledNetwork`.
        engine: None (use the backends recorded at lowering, falling
            back to :data:`DEFAULT_BACKEND`) or anything
            :func:`backend_profile` accepts, overriding per position.
    """
    count = len(net.stages)
    if engine is None:
        return tuple(
            get_backend(getattr(stage, "backend", None) or DEFAULT_BACKEND)
            for stage in net.stages
        )
    profile = backend_profile(engine)
    return tuple(
        get_backend(profile.spec_for(index, count))
        for index in range(count)
    )
