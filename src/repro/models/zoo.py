"""Layer-accurate topologies of the eight CNNs in the paper's Table I.

Each builder returns the ordered list of convolution layers (the only
layers the paper profiles — Table I counts zero *weights* of conv layers,
Figs. 7/8 pool over conv-layer weight tensors).  Channel progressions,
kernel sizes, strides, groups and block counts follow the original papers /
torchvision implementations; fully connected classifiers and
squeeze-excitation FCs are omitted since the paper's profiling never touches
them.  Spatial sizes are tracked so per-layer MAC counts are available to
the latency/energy analyses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DataflowError
from repro.models.layers import (
    ConvLayerSpec,
    LinearSpec,
    NormSpec,
    OpSpec,
    RESIDUAL_INPUT,
    ResidualAddSpec,
)

MODEL_NAMES = (
    "mobilenet_v2",
    "mobilenet_v3",
    "googlenet",
    "inception_v3",
    "shufflenet_v2",
    "resnet18",
    "resnet50",
    "resnext101",
)

#: The paper's Table I label for each model (it prints "ShuffleNetV3";
#: the torchvision family it profiles is ShuffleNet V2).
TABLE1_LABELS = {
    "mobilenet_v2": "MobileNetV2",
    "mobilenet_v3": "MobileNetV3",
    "googlenet": "GoogleNet",
    "inception_v3": "InceptionV3",
    "shufflenet_v2": "ShuffleNetV3",
    "resnet18": "ResNet18",
    "resnet50": "ResNet50",
    "resnext101": "ResNeXt101",
}


class _Net:
    """Sequential layer builder that tracks channels and spatial size."""

    def __init__(self, model: str, channels: int = 3, size: int = 224):
        self.model = model
        self.layers: list[ConvLayerSpec] = []
        self.channels = channels
        self.height = size
        self.width = size
        self._index = 0

    def state(self) -> tuple[int, int, int]:
        return (self.channels, self.height, self.width)

    def set_state(self, state: tuple[int, int, int]) -> None:
        self.channels, self.height, self.width = state

    def conv(
        self,
        out_channels: int,
        kernel: "int | tuple[int, int]",
        stride: int = 1,
        groups: int = 1,
        padding: "int | tuple[int, int] | None" = None,
        tag: str | None = None,
    ) -> ConvLayerSpec:
        """Append a convolution; "same"-style padding by default."""
        kernel_h, kernel_w = (
            (kernel, kernel) if isinstance(kernel, int) else kernel
        )
        if padding is None:
            padding = (kernel_h // 2, kernel_w // 2)
        name = tag if tag else f"conv{self._index}"
        layer = ConvLayerSpec(
            name=f"{self.model}.{name}",
            in_channels=self.channels,
            out_channels=out_channels,
            kernel_h=kernel_h,
            kernel_w=kernel_w,
            stride=stride,
            padding=padding,
            groups=groups,
            in_height=self.height,
            in_width=self.width,
        )
        self.layers.append(layer)
        self._index += 1
        self.channels = out_channels
        self.height = layer.out_height
        self.width = layer.out_width
        return layer

    def pool(self, kernel: int = 3, stride: int = 2, padding: int = 0):
        """Max/avg pool — spatial bookkeeping only (no weights)."""
        self.height = (self.height + 2 * padding - kernel) // stride + 1
        self.width = (self.width + 2 * padding - kernel) // stride + 1


# ----------------------------------------------------------------------
# MobileNetV2 (Sandler et al., width 1.0)
# ----------------------------------------------------------------------
def _mobilenet_v2() -> list[ConvLayerSpec]:
    net = _Net("mobilenet_v2")
    net.conv(32, 3, stride=2, tag="stem")
    # (expansion t, output channels c, repeats n, first stride s)
    settings = [
        (1, 16, 1, 1),
        (6, 24, 2, 2),
        (6, 32, 3, 2),
        (6, 64, 4, 2),
        (6, 96, 3, 1),
        (6, 160, 3, 2),
        (6, 320, 1, 1),
    ]
    block = 0
    for expansion, out_channels, repeats, first_stride in settings:
        for repeat in range(repeats):
            stride = first_stride if repeat == 0 else 1
            hidden = net.channels * expansion
            prefix = f"block{block}"
            if expansion != 1:
                net.conv(hidden, 1, tag=f"{prefix}.expand")
            net.conv(
                hidden, 3, stride=stride, groups=hidden, tag=f"{prefix}.dw"
            )
            net.conv(out_channels, 1, tag=f"{prefix}.project")
            block += 1
    net.conv(1280, 1, tag="head")
    return net.layers


# ----------------------------------------------------------------------
# MobileNetV3-Large (Howard et al.); SE fully-connected layers omitted
# ----------------------------------------------------------------------
def _mobilenet_v3() -> list[ConvLayerSpec]:
    net = _Net("mobilenet_v3")
    net.conv(16, 3, stride=2, tag="stem")
    # (kernel, expanded channels, output channels, stride)
    settings = [
        (3, 16, 16, 1),
        (3, 64, 24, 2),
        (3, 72, 24, 1),
        (5, 72, 40, 2),
        (5, 120, 40, 1),
        (5, 120, 40, 1),
        (3, 240, 80, 2),
        (3, 200, 80, 1),
        (3, 184, 80, 1),
        (3, 184, 80, 1),
        (3, 480, 112, 1),
        (3, 672, 112, 1),
        (5, 672, 160, 2),
        (5, 960, 160, 1),
        (5, 960, 160, 1),
    ]
    for index, (kernel, hidden, out_channels, stride) in enumerate(settings):
        prefix = f"bneck{index}"
        if hidden != net.channels:
            net.conv(hidden, 1, tag=f"{prefix}.expand")
        net.conv(
            hidden, kernel, stride=stride, groups=hidden, tag=f"{prefix}.dw"
        )
        net.conv(out_channels, 1, tag=f"{prefix}.project")
    net.conv(960, 1, tag="head")
    return net.layers


# ----------------------------------------------------------------------
# GoogleNet (Inception v1, Szegedy et al.)
# ----------------------------------------------------------------------
def _inception_v1_module(
    net: _Net,
    tag: str,
    c1: int,
    r3: int,
    c3: int,
    r5: int,
    c5: int,
    pool_proj: int,
) -> None:
    entry = net.state()
    net.conv(c1, 1, tag=f"{tag}.b1")
    net.set_state(entry)
    net.conv(r3, 1, tag=f"{tag}.b3r")
    net.conv(c3, 3, tag=f"{tag}.b3")
    net.set_state(entry)
    net.conv(r5, 1, tag=f"{tag}.b5r")
    net.conv(c5, 5, tag=f"{tag}.b5")
    net.set_state(entry)
    net.conv(pool_proj, 1, tag=f"{tag}.pool")
    net.set_state((c1 + c3 + c5 + pool_proj, net.height, net.width))


def _googlenet() -> list[ConvLayerSpec]:
    net = _Net("googlenet")
    net.conv(64, 7, stride=2, tag="stem")
    net.pool(3, 2, padding=1)
    net.conv(64, 1, tag="conv2r")
    net.conv(192, 3, tag="conv2")
    net.pool(3, 2, padding=1)
    _inception_v1_module(net, "3a", 64, 96, 128, 16, 32, 32)
    _inception_v1_module(net, "3b", 128, 128, 192, 32, 96, 64)
    net.pool(3, 2, padding=1)
    _inception_v1_module(net, "4a", 192, 96, 208, 16, 48, 64)
    _inception_v1_module(net, "4b", 160, 112, 224, 24, 64, 64)
    _inception_v1_module(net, "4c", 128, 128, 256, 24, 64, 64)
    _inception_v1_module(net, "4d", 112, 144, 288, 32, 64, 64)
    _inception_v1_module(net, "4e", 256, 160, 320, 32, 128, 128)
    net.pool(3, 2, padding=1)
    _inception_v1_module(net, "5a", 256, 160, 320, 32, 128, 128)
    _inception_v1_module(net, "5b", 384, 192, 384, 48, 128, 128)
    return net.layers


# ----------------------------------------------------------------------
# InceptionV3 (Szegedy et al., torchvision layout, 299x299 input)
# ----------------------------------------------------------------------
def _inception_a(net: _Net, tag: str, pool_features: int) -> None:
    entry = net.state()
    net.conv(64, 1, tag=f"{tag}.b1")
    net.set_state(entry)
    net.conv(48, 1, tag=f"{tag}.b5r")
    net.conv(64, 5, tag=f"{tag}.b5")
    net.set_state(entry)
    net.conv(64, 1, tag=f"{tag}.b3r")
    net.conv(96, 3, tag=f"{tag}.b3a")
    net.conv(96, 3, tag=f"{tag}.b3b")
    net.set_state(entry)
    net.conv(pool_features, 1, tag=f"{tag}.pool")
    net.set_state((224 + pool_features, net.height, net.width))


def _inception_b(net: _Net, tag: str) -> None:
    entry = net.state()
    net.conv(384, 3, stride=2, padding=0, tag=f"{tag}.b3")
    reduced = net.state()
    net.set_state(entry)
    net.conv(64, 1, tag=f"{tag}.bdr")
    net.conv(96, 3, tag=f"{tag}.bda")
    net.conv(96, 3, stride=2, padding=0, tag=f"{tag}.bdb")
    net.set_state((entry[0] + 384 + 96, reduced[1], reduced[2]))


def _inception_c(net: _Net, tag: str, c7: int) -> None:
    entry = net.state()
    net.conv(192, 1, tag=f"{tag}.b1")
    net.set_state(entry)
    net.conv(c7, 1, tag=f"{tag}.b7r")
    net.conv(c7, (1, 7), tag=f"{tag}.b7a")
    net.conv(192, (7, 1), tag=f"{tag}.b7b")
    net.set_state(entry)
    net.conv(c7, 1, tag=f"{tag}.b7dr")
    net.conv(c7, (7, 1), tag=f"{tag}.b7da")
    net.conv(c7, (1, 7), tag=f"{tag}.b7db")
    net.conv(c7, (7, 1), tag=f"{tag}.b7dc")
    net.conv(192, (1, 7), tag=f"{tag}.b7dd")
    net.set_state(entry)
    net.conv(192, 1, tag=f"{tag}.pool")
    net.set_state((768, net.height, net.width))


def _inception_d(net: _Net, tag: str) -> None:
    entry = net.state()
    net.conv(192, 1, tag=f"{tag}.b3r")
    net.conv(320, 3, stride=2, padding=0, tag=f"{tag}.b3")
    reduced = net.state()
    net.set_state(entry)
    net.conv(192, 1, tag=f"{tag}.b7r")
    net.conv(192, (1, 7), tag=f"{tag}.b7a")
    net.conv(192, (7, 1), tag=f"{tag}.b7b")
    net.conv(192, 3, stride=2, padding=0, tag=f"{tag}.b7c")
    # Concat of the 320 and 192 branches with the 768-channel pooled input.
    net.set_state((1280, reduced[1], reduced[2]))


def _inception_e(net: _Net, tag: str) -> None:
    entry = net.state()
    net.conv(320, 1, tag=f"{tag}.b1")
    net.set_state(entry)
    net.conv(384, 1, tag=f"{tag}.b3r")
    net.conv(384, (1, 3), tag=f"{tag}.b3a")
    net.set_state((384, entry[1], entry[2]))
    net.conv(384, (3, 1), tag=f"{tag}.b3b")
    net.set_state(entry)
    net.conv(448, 1, tag=f"{tag}.bdr")
    net.conv(384, 3, tag=f"{tag}.bda")
    net.conv(384, (1, 3), tag=f"{tag}.bdb")
    net.set_state((384, entry[1], entry[2]))
    net.conv(384, (3, 1), tag=f"{tag}.bdc")
    net.set_state(entry)
    net.conv(192, 1, tag=f"{tag}.pool")
    net.set_state((2048, net.height, net.width))


def _inception_v3() -> list[ConvLayerSpec]:
    net = _Net("inception_v3", size=299)
    net.conv(32, 3, stride=2, padding=0, tag="stem.a")
    net.conv(32, 3, padding=0, tag="stem.b")
    net.conv(64, 3, tag="stem.c")
    net.pool(3, 2)
    net.conv(80, 1, tag="stem.d")
    net.conv(192, 3, padding=0, tag="stem.e")
    net.pool(3, 2)
    _inception_a(net, "mixed5b", 32)
    _inception_a(net, "mixed5c", 64)
    _inception_a(net, "mixed5d", 64)
    _inception_b(net, "mixed6a")
    _inception_c(net, "mixed6b", 128)
    _inception_c(net, "mixed6c", 160)
    _inception_c(net, "mixed6d", 160)
    _inception_c(net, "mixed6e", 192)
    _inception_d(net, "mixed7a")
    _inception_e(net, "mixed7b")
    _inception_e(net, "mixed7c")
    return net.layers


# ----------------------------------------------------------------------
# ShuffleNet V2 1.0x (Ma et al.) — Table I prints "ShuffleNetV3"
# ----------------------------------------------------------------------
def _shuffle_unit(
    net: _Net, tag: str, out_channels: int, stride: int
) -> None:
    entry = net.state()
    branch = out_channels // 2
    if stride == 2:
        # Downsampling unit: both branches see the full input.
        net.conv(
            entry[0], 3, stride=2, groups=entry[0], tag=f"{tag}.b1dw"
        )
        net.conv(branch, 1, tag=f"{tag}.b1pw")
        reduced = net.state()
        net.set_state(entry)
        net.conv(branch, 1, tag=f"{tag}.b2pw1")
        net.conv(branch, 3, stride=2, groups=branch, tag=f"{tag}.b2dw")
        net.conv(branch, 1, tag=f"{tag}.b2pw2")
        net.set_state((out_channels, reduced[1], reduced[2]))
    else:
        # Regular unit: channel split — the active branch is c/2 wide.
        net.set_state((branch, entry[1], entry[2]))
        net.conv(branch, 1, tag=f"{tag}.pw1")
        net.conv(branch, 3, groups=branch, tag=f"{tag}.dw")
        net.conv(branch, 1, tag=f"{tag}.pw2")
        net.set_state((out_channels, entry[1], entry[2]))


def _shufflenet_v2() -> list[ConvLayerSpec]:
    net = _Net("shufflenet_v2")
    net.conv(24, 3, stride=2, tag="stem")
    net.pool(3, 2, padding=1)
    for stage, (out_channels, repeats) in enumerate(
        [(116, 4), (232, 8), (464, 4)], start=2
    ):
        for repeat in range(repeats):
            _shuffle_unit(
                net,
                f"stage{stage}.{repeat}",
                out_channels,
                stride=2 if repeat == 0 else 1,
            )
    net.conv(1024, 1, tag="conv5")
    return net.layers


# ----------------------------------------------------------------------
# ResNet family (He et al.) and ResNeXt101-32x8d (Xie et al.)
# ----------------------------------------------------------------------
def _basic_block(
    net: _Net, tag: str, planes: int, stride: int, downsample: bool
) -> None:
    entry = net.state()
    net.conv(planes, 3, stride=stride, tag=f"{tag}.conv1")
    net.conv(planes, 3, tag=f"{tag}.conv2")
    exit_state = net.state()
    if downsample:
        net.set_state(entry)
        net.conv(planes, 1, stride=stride, tag=f"{tag}.down")
    net.set_state(exit_state)


def _bottleneck(
    net: _Net,
    tag: str,
    planes: int,
    stride: int,
    downsample: bool,
    groups: int = 1,
    base_width: int = 64,
) -> None:
    entry = net.state()
    width = int(planes * (base_width / 64.0)) * groups
    out_channels = planes * 4
    net.conv(width, 1, tag=f"{tag}.conv1")
    net.conv(width, 3, stride=stride, groups=groups, tag=f"{tag}.conv2")
    net.conv(out_channels, 1, tag=f"{tag}.conv3")
    exit_state = net.state()
    if downsample:
        net.set_state(entry)
        net.conv(out_channels, 1, stride=stride, tag=f"{tag}.down")
    net.set_state(exit_state)


def _resnet(
    model: str,
    block_counts: tuple[int, int, int, int],
    bottleneck: bool,
    groups: int = 1,
    base_width: int = 64,
) -> list[ConvLayerSpec]:
    net = _Net(model)
    net.conv(64, 7, stride=2, tag="stem")
    net.pool(3, 2, padding=1)
    planes_per_stage = (64, 128, 256, 512)
    for stage, (planes, blocks) in enumerate(
        zip(planes_per_stage, block_counts), start=1
    ):
        for block in range(blocks):
            stride = 2 if (stage > 1 and block == 0) else 1
            expected = planes * 4 if bottleneck else planes
            downsample = block == 0 and (
                stride != 1 or net.channels != expected
            )
            tag = f"layer{stage}.{block}"
            if bottleneck:
                _bottleneck(
                    net, tag, planes, stride, downsample, groups, base_width
                )
            else:
                _basic_block(net, tag, planes, stride, downsample)
    return net.layers


# ----------------------------------------------------------------------
# tiny_llm — one transformer block as an op graph (ROADMAP: LLM GEMM
# streaming workload).  Attention QKV/out + MLP projections are
# LinearSpec nodes (R=S=1 conv atoms, token axis = output pixels);
# residual adds and layernorm-as-requant are weightless glue folded by
# the lowering pass.  This runtime streams *weights* — the
# activation-by-activation attention score matmul has no weight tensor
# to stream, so the block models the seven projection GEMMs that
# dominate decode cost (the Tempus Versal framing).
# ----------------------------------------------------------------------

#: Nominal decode length tiny_llm is lowered at; the executor accepts
#: any actual token count (autoregressive decode grows it per step).
TINY_LLM_TOKENS = 64


def _tiny_llm() -> "list[OpSpec]":
    from repro.gemm.llm import TINY_LLM  # lazy: avoid import cycles

    d_model, d_ff, tokens = TINY_LLM.d_model, TINY_LLM.d_ff, TINY_LLM_TOKENS

    def proj(tag: str, d_in: int, d_out: int) -> LinearSpec:
        return LinearSpec(
            name=f"tiny_llm.{tag}",
            in_features=d_in,
            out_features=d_out,
            tokens=tokens,
        )

    return [
        proj("attn.q", d_model, d_model),
        proj("attn.k", d_model, d_model),
        proj("attn.v", d_model, d_model),
        proj("attn.o", d_model, d_model),
        ResidualAddSpec("tiny_llm.attn.residual", source=RESIDUAL_INPUT),
        NormSpec("tiny_llm.attn.norm"),
        proj("mlp.up", d_model, d_ff),
        proj("mlp.down", d_ff, d_model),
        ResidualAddSpec("tiny_llm.mlp.residual", source="tiny_llm.attn.o"),
        NormSpec("tiny_llm.mlp.norm"),
    ]


#: Non-Table-I workloads reachable through :func:`build_model` (and the
#: serving/benchmark stack) without being part of the paper's CNN set.
EXTENSION_MODELS = ("tiny_llm",)

_BUILDERS = {
    "tiny_llm": _tiny_llm,
    "mobilenet_v2": _mobilenet_v2,
    "mobilenet_v3": _mobilenet_v3,
    "googlenet": _googlenet,
    "inception_v3": _inception_v3,
    "shufflenet_v2": _shufflenet_v2,
    "resnet18": lambda: _resnet("resnet18", (2, 2, 2, 2), bottleneck=False),
    "resnet50": lambda: _resnet("resnet50", (3, 4, 6, 3), bottleneck=True),
    "resnext101": lambda: _resnet(
        "resnext101", (3, 4, 23, 3), bottleneck=True, groups=32, base_width=8
    ),
}


@dataclass(frozen=True)
class ModelSpec:
    """A model ready for weight synthesis.

    Attributes:
        name: canonical zoo name.
        layers: ordered op-graph nodes (all conv for the Table-I CNNs;
            linear + elementwise glue for the transformer extensions).
    """

    name: str
    layers: tuple[OpSpec, ...]

    @property
    def weighted_layers(self) -> "tuple[OpSpec, ...]":
        return tuple(op for op in self.layers if op.is_weighted)

    @property
    def total_weights(self) -> int:
        return sum(layer.weight_count for layer in self.layers)

    @property
    def total_macs(self) -> int:
        return sum(layer.macs for layer in self.layers)

    def scaled(self, factor: float) -> "ModelSpec":
        """Width-scaled variant (tests use small factors for speed)."""
        return ModelSpec(
            name=self.name,
            layers=tuple(layer.scaled(factor) for layer in self.layers),
        )


def build_model(name: str, scale: float = 1.0) -> ModelSpec:
    """Construct a zoo model by name.

    Args:
        name: one of :data:`MODEL_NAMES` or :data:`EXTENSION_MODELS`.
        scale: width multiplier in (0, 1] (1.0 = the published topology).
    """
    if name not in _BUILDERS:
        available = ", ".join(MODEL_NAMES + EXTENSION_MODELS)
        raise DataflowError(
            f"unknown model {name!r}; available: {available}"
        )
    spec = ModelSpec(name=name, layers=tuple(_BUILDERS[name]()))
    if scale != 1.0:
        spec = spec.scaled(scale)
    return spec
