"""Synthetic weight generation calibrated to the paper's statistics.

The paper profiles *pretrained* INT8 CNNs; offline we synthesise per-layer
weight tensors whose quantized statistics match what the paper (and its
source, Vellaisamy et al. [13]) publish:

* **Table I word sparsity** — fraction of exactly-zero INT8 codes.
* **Fig. 7 tile-max profile** — the distribution of the largest magnitude
  per 16x16 tile, which sets Tempus Core's burst latency.

Trained CNN weights are well modelled by zero-mean Gaussian/Laplacian
mixtures (heavier tails in later, over-parameterised layers).  Each model
carries a mixture spec: ``laplace_fraction`` moves mass into the tails
(more small quantized codes -> more zeros, lower tile maxima) and
``zero_inflation`` adds exactly-pruned weights (MobileNetV3's 9.5% sparsity
is pruning-dominated).  The per-model values below were fitted once against
Table I; `tests/models/test_calibration.py` locks them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import CalibrationError
from repro.models.layers import OpSpec
from repro.models.zoo import ModelSpec, build_model
from repro.quant.profile import PrecisionProfile, precision_profile
from repro.quant.quantize import quantize_per_tensor
from repro.utils.intrange import INT8, IntSpec
from repro.utils.rng import make_rng


@dataclass(frozen=True)
class WeightSynthesisSpec:
    """Distribution mixture for one model's weights.

    Attributes:
        laplace_fraction: share of weights drawn from a Laplace (heavy
            tail); the rest are Gaussian.
        zero_inflation: share of weights set exactly to zero before
            quantization (pruned weights).
    """

    laplace_fraction: float = 0.2
    zero_inflation: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.laplace_fraction <= 1.0:
            raise CalibrationError("laplace_fraction must be in [0, 1]")
        if not 0.0 <= self.zero_inflation < 1.0:
            raise CalibrationError("zero_inflation must be in [0, 1)")


#: Per-model mixtures fitted to Table I (word sparsity %) of the paper by a
#: secant search on laplace_fraction (zero_inflation only for MobileNetV3,
#: whose published sparsity is pruning-dominated).  Achieved sparsities are
#: locked by tests/models/test_calibration.py; ``python -m repro bench
#: paper`` prints them beside the paper's (the ``table1`` record).
MODEL_SYNTHESIS: dict[str, WeightSynthesisSpec] = {
    "mobilenet_v2": WeightSynthesisSpec(0.0732, 0.0000),
    "mobilenet_v3": WeightSynthesisSpec(0.0732, 0.0746),
    "googlenet": WeightSynthesisSpec(0.0240, 0.0000),
    "inception_v3": WeightSynthesisSpec(0.0228, 0.0000),
    "shufflenet_v2": WeightSynthesisSpec(0.0000, 0.0000),
    "resnet18": WeightSynthesisSpec(0.0040, 0.0000),
    "resnet50": WeightSynthesisSpec(0.0447, 0.0000),
    "resnext101": WeightSynthesisSpec(0.0568, 0.0000),
}


def synthesize_layer_weights(
    layer: OpSpec,
    spec: WeightSynthesisSpec,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw one layer's float weights (He-scaled mixture)."""
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


@dataclass(frozen=True)
class QuantizedLayer:
    """One quantized op: integer codes + metadata.  Weightless glue ops
    carry an empty codes tensor (they exist so ``layers`` stays 1:1 with
    the model's op graph for the lowering pass)."""

    layer: OpSpec
    codes: np.ndarray  # int16, shape = layer.weight_shape
    scale: float
    precision: IntSpec = INT8

    @property
    def zero_fraction(self) -> float:
        return float(np.mean(self.codes == 0))

    @cached_property
    def codes64(self) -> np.ndarray:
        """The codes widened to int64, materialised once per layer and
        shared by every profiling, scheduling and lowering pass over the
        model — read-only, so no pass can edit another's weights."""
        codes = self.codes.astype(np.int64)
        codes.setflags(write=False)
        return codes


@dataclass(frozen=True)
class QuantizedModel:
    """A fully synthesized + quantized CNN.

    Attributes:
        name: zoo model name.
        precision: the widest member format of the profile — what a MAC
            array executing the whole network must be provisioned for.
        layers: per-layer codes, each quantized at its own
            :attr:`QuantizedLayer.precision`.
        profile: the per-layer precision recipe (defaults to uniform at
            ``precision``).
    """

    name: str
    precision: IntSpec
    layers: tuple[QuantizedLayer, ...]
    profile: PrecisionProfile | None = None

    def __post_init__(self) -> None:
        if self.profile is None:
            object.__setattr__(
                self, "profile", precision_profile(self.precision)
            )

    @property
    def total_weights(self) -> int:
        return sum(q.codes.size for q in self.layers)

    def word_sparsity(self) -> float:
        """Fraction of zero codes across all conv layers — the Table I
        statistic."""
        zeros = sum(int((q.codes == 0).sum()) for q in self.layers)
        return zeros / max(self.total_weights, 1)

    def iter_weight_tensors(self):
        """Yield (layer_spec, int64 codes) pairs for profiling."""
        for q in self.layers:
            yield q.layer, q.codes64


def quantize_layer(
    layer: OpSpec,
    weights: np.ndarray,
    precision: IntSpec,
) -> QuantizedLayer:
    """Symmetric per-tensor quantization of one layer (min-max calibrated,
    as in the INT8 deployments the paper profiles)."""
    qt = quantize_per_tensor(weights, precision)
    return QuantizedLayer(
        layer=layer,
        codes=qt.data.astype(np.int16),
        scale=float(qt.scale),
        precision=qt.spec,
    )


def load_quantized_model(
    name: str,
    precision: "int | str | IntSpec | PrecisionProfile" = INT8,
    scale: float = 1.0,
    synthesis: WeightSynthesisSpec | None = None,
) -> QuantizedModel:
    """Synthesize and quantize a zoo model.

    Deterministic: the RNG stream is keyed on (model, layer index), so the
    same call always produces the same tensors — the *float* weight
    stream is shared across precisions, so profiles quantize the same
    underlying network.

    Args:
        name: zoo model name.
        precision: target integer format (Table I uses INT8) or a
            :class:`~repro.quant.profile.PrecisionProfile` / profile
            name (``"mixed"``) for per-layer formats.
        scale: width multiplier (tests use < 1 for speed).
        synthesis: override the calibrated mixture.
    """
    profile = precision_profile(precision)
    model: ModelSpec = build_model(name, scale=scale)
    mixture = synthesis if synthesis is not None else MODEL_SYNTHESIS.get(
        name, WeightSynthesisSpec()
    )
    # Precision-profile slots index *weighted* ops only, so a profile's
    # first/last special cases land on real weight tensors regardless of
    # how much weightless glue the op graph carries.  (For the CNN zoo
    # every op is weighted, so the indexing is unchanged.)
    count = sum(1 for op in model.layers if op.is_weighted)
    quantized = []
    weighted_index = 0
    for index, layer in enumerate(model.layers):
        if not layer.is_weighted:
            quantized.append(
                QuantizedLayer(
                    layer=layer,
                    codes=np.zeros((0,), dtype=np.int16),
                    scale=1.0,
                    precision=profile.widest,
                )
            )
            continue
        rng = make_rng("weights", name, index)
        floats = synthesize_layer_weights(layer, mixture, rng)
        quantized.append(
            quantize_layer(
                layer, floats, profile.spec_for(weighted_index, count)
            )
        )
        weighted_index += 1
    return QuantizedModel(
        name=name,
        precision=profile.widest,
        layers=tuple(quantized),
        profile=profile,
    )
