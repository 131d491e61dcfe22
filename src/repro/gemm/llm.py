"""Ultra-low-precision LLM projection on tub hardware (the paper's
Sec. VI future work: "unary-based compute architectures targeted towards
ultra-low precision quantized large language models").

LLM inference at batch 1 is GEMV-bound: every transformer projection is
``y = W x`` with a (d_out x d_in) weight matrix streamed once per token.
This module maps that onto a Tempus-style k x n tub array:

* the weight matrix is tiled into k-row x n-column blocks (exactly the
  conv atom layout with R = S = 1);
* each tile is one burst of ``max(1, ceil(max|w| / 2))`` cycles;
* INT4/INT2 weight-only quantization bounds every burst at 4 / 1 cycles,
  which is where tub hardware becomes latency-competitive with binary
  arrays while keeping its area advantage.

Results are exact integers (activations INT8, weights INT2/4/8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.core.latency import burst_cycle_map
from repro.errors import DataflowError
from repro.nvdla.config import CoreConfig
from repro.unary.encoding import TwosUnaryCode, UnaryCode
from repro.utils.intrange import IntSpec, int_spec


@dataclass(frozen=True)
class MatVecResult:
    """One projection's execution summary.

    Attributes:
        output: exact (d_out,) integer result.
        tempus_cycles: tub-array latency (sum of tile bursts).
        binary_cycles: binary-array latency (one cycle per tile).
        tiles: number of k x n weight tiles streamed.
    """

    output: np.ndarray
    tempus_cycles: int
    binary_cycles: int
    tiles: int

    @property
    def slowdown(self) -> float:
        return self.tempus_cycles / max(self.binary_cycles, 1)


class TubMatVec:
    """Tub-array GEMV engine for weight-only-quantized projections."""

    def __init__(
        self,
        config: CoreConfig | None = None,
        weight_precision: "int | str | IntSpec" = 4,
        activation_precision: "int | str | IntSpec" = 8,
        code: UnaryCode | None = None,
    ) -> None:
        """Args:
        config: array geometry (defaults to 16x16).
        weight_precision: the streamed (temporal) operand's format —
            INT4/INT2 for the LLM use case.
        activation_precision: the held (binary) operand's format.
        code: unary code (default 2s-unary).
        """
        self.config = config if config is not None else CoreConfig()
        self.weight_spec = int_spec(weight_precision)
        self.activation_spec = int_spec(activation_precision)
        self.code = code if code is not None else TwosUnaryCode()

    def project(
        self, weights: np.ndarray, activations: np.ndarray
    ) -> MatVecResult:
        """Compute ``weights @ activations`` exactly with tub latency.

        Args:
            weights: (d_out, d_in) integer matrix in weight precision.
            activations: (d_in,) integer vector in activation precision.
        """
        weights = np.asarray(weights)
        activations = np.asarray(activations)
        if weights.ndim != 2 or activations.ndim != 1:
            raise DataflowError("expected (d_out, d_in) W and (d_in,) x")
        if weights.shape[1] != activations.shape[0]:
            raise DataflowError(
                f"dimension mismatch: {weights.shape} @ "
                f"{activations.shape}"
            )
        weights = self.weight_spec.check_array(weights)
        activations = self.activation_spec.check_array(activations)

        # GEMV == 1x1 convolution over a 1x1 "image": reuse the conv
        # burst model directly.
        bursts = burst_cycle_map(
            weights[:, :, None, None], self.config, self.code
        )
        tiles = int(bursts.size)
        return MatVecResult(
            output=weights @ activations,
            tempus_cycles=int(bursts.sum()),
            binary_cycles=tiles,
            tiles=tiles,
        )


def project_linear_stage(
    stage,
    activations: np.ndarray | None = None,
    code: UnaryCode | None = None,
) -> MatVecResult:
    """Run one lowered linear stage's per-token GEMV through
    :class:`TubMatVec`.

    ``stage`` is a :class:`~repro.runtime.lowering.StagePlan` whose layer
    is a ``LinearSpec``.  The engine streams the stage's tile-order
    weights (:meth:`~repro.runtime.lowering.StagePlan.scheduled_weights`)
    at the stage's geometry, so the result is the per-token latency the
    executor's value-aware accounting charges that stage:

    * tempus: ``tempus_cycles * tokens + pipeline_latency + 1``
    * binary: ``binary_cycles * tokens + pipeline_latency``
    * tubgemm: ``tempus_cycles * tokens`` exactly

    Args:
        stage: a lowered ``StagePlan`` for a ``LinearSpec`` op.
        activations: optional (d_in,) vector; zeros when omitted (the
            latency model is activation-independent).
        code: unary code override (defaults to the stage-agnostic
            2s-unary, matching the runtime default).

    Returns:
        the engine's result, its ``output`` in natural kernel order:
        the stage's pre-SDP psums for one token of ``activations``.
    """
    from repro.models.layers import LinearSpec

    if not isinstance(stage.layer, LinearSpec):
        raise DataflowError(
            f"{stage.name}: expected a LinearSpec stage, got "
            f"{type(stage.layer).__name__}"
        )
    if stage.groups != 1:
        raise DataflowError(
            f"{stage.name}: grouped linear stages are not GEMVs"
        )
    engine = TubMatVec(
        config=stage.config,
        weight_precision=stage.precision,
        activation_precision=stage.precision,
        code=code,
    )
    matrix = stage.scheduled_weights()[0, :, :, 0, 0]
    if activations is None:
        activations = np.zeros(matrix.shape[1], dtype=np.int64)
    activations = np.asarray(activations)
    if activations.shape != matrix.shape[1:]:
        raise DataflowError(
            f"{stage.name}: expected {matrix.shape[1:]} activations, "
            f"got shape {activations.shape}"
        )
    result = engine.project(matrix, activations[stage.channel_order[0]])
    restore = np.argsort(stage.kernel_order[0])
    return replace(result, output=result.output[restore])


@dataclass(frozen=True)
class TransformerLayerDims:
    """Projection shapes of one decoder layer.

    Attributes:
        d_model: hidden size.
        n_heads: attention heads (q/k/v/o are d_model x d_model here).
        d_ff: feed-forward inner size.
    """

    d_model: int
    n_heads: int
    d_ff: int

    def projections(self) -> list[tuple[str, int, int]]:
        """(name, d_out, d_in) for every GEMV of one token step."""
        return [
            ("attn.q", self.d_model, self.d_model),
            ("attn.k", self.d_model, self.d_model),
            ("attn.v", self.d_model, self.d_model),
            ("attn.o", self.d_model, self.d_model),
            ("mlp.up", self.d_ff, self.d_model),
            ("mlp.gate", self.d_ff, self.d_model),
            ("mlp.down", self.d_model, self.d_ff),
        ]


#: A small LLaMA-style decoder layer used by the extension benchmark.
TINY_LLM = TransformerLayerDims(d_model=512, n_heads=8, d_ff=1408)


def synthesize_llm_weights(
    dims: TransformerLayerDims,
    precision: "int | str | IntSpec",
    seed: str = "llm",
) -> dict[str, np.ndarray]:
    """Gaussian weights quantized symmetrically per projection — the
    weight-only-quantization setting of low-bit LLM deployment."""
    from repro.quant.quantize import quantize_per_tensor
    from repro.utils.rng import make_rng

    spec = int_spec(precision)
    tensors = {}
    for name, d_out, d_in in dims.projections():
        rng = make_rng("llm-weights", seed, name)
        floats = rng.normal(0.0, 1.0 / math.sqrt(d_in), (d_out, d_in))
        tensors[name] = quantize_per_tensor(floats, spec).data
    return tensors


def token_step_latency(
    dims: TransformerLayerDims,
    weight_precision: "int | str | IntSpec",
    config: CoreConfig | None = None,
    seed: str = "llm",
) -> dict[str, MatVecResult]:
    """Run every projection of one token step; returns per-projection
    results keyed by name."""
    config = config if config is not None else CoreConfig()
    engine = TubMatVec(config, weight_precision=weight_precision)
    weights = synthesize_llm_weights(dims, weight_precision, seed)
    from repro.utils.rng import make_rng

    rng = make_rng("llm-activations", seed)
    results = {}
    for name, d_out, d_in in dims.projections():
        activations = engine.activation_spec.random_array(rng, d_in)
        results[name] = engine.project(weights[name], activations)
    return results
