"""Op-graph intermediate representation.

Historically this module held only :class:`ConvLayerSpec` — the single
node type the whole stack understood.  The IR is now a small op graph:
every node derives from :class:`OpSpec`, weighted ops
(:class:`ConvLayerSpec`, :class:`LinearSpec`) expose one shared
conv-style geometry surface (``weight_shape``/``fan_in``/``out_height``
— a matmul is an R=S=1 convolution over a ``(features, tokens, 1)``
activation tensor, exactly the mapping the ``GemmConvCore`` im2col
adapter established), and weightless elementwise glue
(:class:`ResidualAddSpec`, :class:`NormSpec`) is folded into the
neighbouring weighted stage by the lowering pass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import DataflowError
from repro.nvdla.dataflow import ConvShape


class OpSpec:
    """Base class for op-graph nodes.

    Weighted ops carry a weight tensor and lower to one pipeline stage
    each; weightless glue ops carry no weights and are folded into the
    surrounding stages (they cost zero extra cycles, like bias/ReLU in
    the SDP).  Every node — weighted or not — exposes ``weight_count``
    and ``macs`` so :class:`repro.models.zoo.ModelSpec` totals work
    uniformly, plus ``scaled`` for width-scaled test variants.
    """

    #: Name every node must carry (dataclass subclasses provide it).
    name: str

    @property
    def is_weighted(self) -> bool:
        return True

    @property
    def weight_count(self) -> int:
        raise NotImplementedError

    @property
    def macs(self) -> int:
        raise NotImplementedError

    def scaled(self, factor: float) -> "OpSpec":
        raise NotImplementedError


@dataclass(frozen=True)
class ConvLayerSpec(OpSpec):
    """One convolution layer of a CNN.

    Supports standard, grouped and depthwise convolutions (``groups ==
    in_channels``), which is required for the MobileNet / ShuffleNet /
    ResNeXt topologies the paper profiles.

    Attributes:
        name: dotted layer path, e.g. "features.3.conv.1".
        in_channels / out_channels: tensor channel counts.
        kernel_h / kernel_w: filter window.
        stride: spatial stride.
        padding: zero padding — an int, or an (pad_h, pad_w) tuple for the
            rectangular kernels of InceptionV3.
        groups: channel groups (1 = dense, in_channels = depthwise).
        in_height / in_width: input spatial size (for MAC/latency math).
    """

    name: str
    in_channels: int
    out_channels: int
    kernel_h: int
    kernel_w: int
    stride: int = 1
    padding: "int | tuple[int, int]" = 0
    groups: int = 1
    in_height: int = 224
    in_width: int = 224

    def __post_init__(self) -> None:
        if isinstance(self.padding, int):
            object.__setattr__(
                self, "padding", (self.padding, self.padding)
            )
        if self.groups < 1:
            raise DataflowError(f"{self.name}: groups must be >= 1")
        if self.in_channels % self.groups:
            raise DataflowError(
                f"{self.name}: in_channels {self.in_channels} not divisible "
                f"by groups {self.groups}"
            )
        if self.out_channels % self.groups:
            raise DataflowError(
                f"{self.name}: out_channels {self.out_channels} not "
                f"divisible by groups {self.groups}"
            )

    @property
    def channels_per_group(self) -> int:
        return self.in_channels // self.groups

    @property
    def is_depthwise(self) -> bool:
        return self.groups == self.in_channels and self.groups > 1

    @property
    def weight_shape(self) -> tuple[int, int, int, int]:
        """(K, C/groups, R, S) — the stored weight tensor shape."""
        return (
            self.out_channels,
            self.channels_per_group,
            self.kernel_h,
            self.kernel_w,
        )

    @property
    def weight_count(self) -> int:
        k, c, r, s = self.weight_shape
        return k * c * r * s

    @property
    def fan_in(self) -> int:
        return self.channels_per_group * self.kernel_h * self.kernel_w

    @property
    def padding_h(self) -> int:
        return self.padding[0]

    @property
    def padding_w(self) -> int:
        return self.padding[1]

    @property
    def out_height(self) -> int:
        return (
            self.in_height + 2 * self.padding_h - self.kernel_h
        ) // self.stride + 1

    @property
    def out_width(self) -> int:
        return (
            self.in_width + 2 * self.padding_w - self.kernel_w
        ) // self.stride + 1

    @property
    def macs(self) -> int:
        return (
            self.out_height
            * self.out_width
            * self.out_channels
            * self.fan_in
        )

    def conv_shape(self) -> ConvShape:
        """Dataflow view of one group (groups are scheduled as independent
        convolutions on the core).  Requires symmetric padding."""
        if self.padding_h != self.padding_w:
            raise DataflowError(
                f"{self.name}: dataflow mapping needs symmetric padding"
            )
        return ConvShape(
            in_channels=self.channels_per_group,
            in_height=self.in_height,
            in_width=self.in_width,
            out_channels=self.out_channels // self.groups,
            kernel_h=self.kernel_h,
            kernel_w=self.kernel_w,
            stride=self.stride,
            padding=self.padding_h,
        )

    def scaled(self, factor: float) -> "ConvLayerSpec":
        """Width-scaled copy (used by tests to shrink models); channel
        counts stay multiples of groups."""
        if factor <= 0 or factor > 1:
            raise DataflowError(f"scale factor must be in (0, 1]: {factor}")

        def scale_channels(value: int) -> int:
            return max(1, int(round(value * factor)))

        if self.groups == 1:
            groups = 1
            cin = scale_channels(self.in_channels)
            cout = scale_channels(self.out_channels)
        elif self.is_depthwise:
            groups = scale_channels(self.groups)
            cin = groups
            cout = groups * (self.out_channels // self.groups)
        else:
            groups = self.groups
            cin = scale_channels(self.in_channels // groups) * groups
            cout = scale_channels(self.out_channels // groups) * groups
        return ConvLayerSpec(
            name=self.name,
            in_channels=cin,
            out_channels=cout,
            kernel_h=self.kernel_h,
            kernel_w=self.kernel_w,
            stride=self.stride,
            padding=self.padding,
            groups=groups,
            in_height=self.in_height,
            in_width=self.in_width,
        )


@dataclass(frozen=True)
class LinearSpec(OpSpec):
    """One dense projection (matmul) of a transformer block.

    Lowered as an R=S=1 convolution: the weight matrix ``(out_features,
    in_features)`` is stored as a ``(K, C, 1, 1)`` tensor and the token
    axis rides the spatial height — activations are ``(in_features,
    tokens, 1)`` and every token is one output pixel.  That makes the
    whole NVDLA pipeline (atom tiling, burst maps, value-aware cycle
    accounting, all four backends) apply unchanged.  ``tokens`` is the
    *nominal* sequence length used for lowering and MAC totals; the
    executor accepts any actual token count at run time (autoregressive
    decode grows it per step).

    Attributes:
        name: dotted op path, e.g. "tiny_llm.attn.q".
        in_features / out_features: matmul dimensions.
        tokens: nominal sequence length (output pixels).
    """

    name: str
    in_features: int
    out_features: int
    tokens: int = 1

    def __post_init__(self) -> None:
        if self.in_features < 1 or self.out_features < 1:
            raise DataflowError(
                f"{self.name}: features must be >= 1"
            )
        if self.tokens < 1:
            raise DataflowError(f"{self.name}: tokens must be >= 1")

    # -- conv-compatible geometry surface --------------------------------
    @property
    def in_channels(self) -> int:
        return self.in_features

    @property
    def out_channels(self) -> int:
        return self.out_features

    kernel_h = 1
    kernel_w = 1
    stride = 1
    groups = 1
    padding = (0, 0)
    padding_h = 0
    padding_w = 0
    is_depthwise = False
    is_pointwise = True

    @property
    def channels_per_group(self) -> int:
        return self.in_features

    @property
    def in_height(self) -> int:
        return self.tokens

    in_width = 1

    @property
    def out_height(self) -> int:
        return self.tokens

    out_width = 1

    @property
    def weight_shape(self) -> tuple[int, int, int, int]:
        return (self.out_features, self.in_features, 1, 1)

    @property
    def weight_count(self) -> int:
        return self.out_features * self.in_features

    @property
    def fan_in(self) -> int:
        return self.in_features

    @property
    def macs(self) -> int:
        return self.tokens * self.out_features * self.in_features

    def conv_shape(self) -> ConvShape:
        return ConvShape(
            in_channels=self.in_features,
            in_height=self.tokens,
            in_width=1,
            out_channels=self.out_features,
            kernel_h=1,
            kernel_w=1,
            stride=1,
            padding=0,
        )

    def scaled(self, factor: float) -> "LinearSpec":
        """Feature-scaled copy (model width; the token axis is scaled
        separately by the lowering's ``input_size``, like CNN spatial
        rescaling)."""
        if factor <= 0 or factor > 1:
            raise DataflowError(f"scale factor must be in (0, 1]: {factor}")
        return LinearSpec(
            name=self.name,
            in_features=max(1, int(round(self.in_features * factor))),
            out_features=max(1, int(round(self.out_features * factor))),
            tokens=self.tokens,
        )

    def with_tokens(self, tokens: int) -> "LinearSpec":
        return replace(self, tokens=tokens)


#: Residual-source sentinel naming the model input itself.
RESIDUAL_INPUT = "input"


@dataclass(frozen=True)
class ResidualAddSpec(OpSpec):
    """Elementwise residual add — weightless glue.

    Adds the saved output of an earlier op (or the block input, via
    ``source=RESIDUAL_INPUT``) to the requantized output of the
    *preceding* weighted op — the SDP's elementwise-add unit,
    downstream of the scaling core, so both operands live in the
    activation format and the sum saturates back into it.  Lowering
    folds it into the preceding stage: the add is exact integer
    arithmetic, so it is bit-identical across every execution path and
    costs zero cycles (like the SDP bias add it rides next to).
    """

    name: str
    source: str = RESIDUAL_INPUT

    @property
    def is_weighted(self) -> bool:
        return False

    weight_count = 0
    macs = 0

    def scaled(self, factor: float) -> "ResidualAddSpec":
        return self


@dataclass(frozen=True)
class NormSpec(OpSpec):
    """Layernorm approximated as a static requant — weightless glue.

    A real layernorm rescales activations back to unit variance.  The
    linear-stage SDP calibration is already unit-gain in the fan-in
    (see ``repro.runtime.lowering._layer_sdp``), so the only variance
    left for the norm to absorb is the residual sum it follows in a
    transformer block: adding two same-scale signals doubles the
    variance, and one exact right-shift restores it.  Deterministic
    and integer-exact, hence bit-identity across paths is untouched.
    """

    name: str

    @property
    def is_weighted(self) -> bool:
        return False

    weight_count = 0
    macs = 0

    @staticmethod
    def requant_shift(fan_in: int) -> int:
        if fan_in < 1:
            raise DataflowError("norm fan_in must be >= 1")
        # A degenerate 1-wide fan accumulates nothing; there is no
        # variance growth to shift away.
        return 1 if fan_in > 1 else 0

    def scaled(self, factor: float) -> "NormSpec":
        return self
