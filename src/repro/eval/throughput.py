"""Iso-area throughput analysis (the paper's Sec. V-D and Fig. 9).

The paper's metric: at equal silicon area, how many more tub PE cells fit
than binary cells?  Since both arrays generate k partial sums per "issue"
(one cycle binary, m cycles tub — with the same m assumed for all tub
copies), the iso-area *throughput* improvement equals the area ratio
``binary_area / tub_area``.  Fig. 9 extends this by fitting the area-ratio
trend over n and projecting to n = 65536.

:func:`measured_layer_throughput` complements the analytic view with
*simulated* throughput from the burst-level engine (``mode="burst"``),
which makes full-scale measured MACs/cycle numbers cheap enough for the
benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DataflowError, SynthesisError


def iso_area_improvement(binary_area: float, tub_area: float) -> float:
    """Throughput improvement at iso-area (the paper's definition)."""
    if binary_area <= 0 or tub_area <= 0:
        raise SynthesisError("areas must be positive")
    return binary_area / tub_area


@dataclass(frozen=True)
class ScalingFit:
    """Log-log linear fit of the improvement trend over n.

    improvement(n) ~= exp(intercept) * n^exponent
    """

    exponent: float
    intercept: float

    def predict(self, n: int) -> float:
        return float(np.exp(self.intercept) * n**self.exponent)


def fit_improvement_scaling(
    n_values: "list[int] | np.ndarray",
    improvements: "list[float] | np.ndarray",
) -> ScalingFit:
    """Fit ``log(improvement) = intercept + exponent * log(n)``."""
    n_values = np.asarray(n_values, dtype=np.float64)
    improvements = np.asarray(improvements, dtype=np.float64)
    if n_values.size < 2:
        raise SynthesisError("need at least two points to fit scaling")
    if np.any(n_values <= 0) or np.any(improvements <= 0):
        raise SynthesisError("scaling fit needs positive values")
    exponent, intercept = np.polyfit(
        np.log(n_values), np.log(improvements), 1
    )
    return ScalingFit(exponent=float(exponent), intercept=float(intercept))


def project_improvement(
    n_values: "list[int]",
    improvements: "list[float]",
    target_n: int,
) -> float:
    """Fig. 9's red-dotted-line projection: extrapolate the fitted trend
    to a large n (the paper projects n = 65536)."""
    return fit_improvement_scaling(n_values, improvements).predict(target_n)


def images_per_million_cycles(images: int, cycles: int) -> float:
    """Network-level throughput normalisation used by the batched
    runtime benchmark (``results/BENCH_backends.json``): how many whole
    images the conv pipeline finishes per million core cycles.

    Raises:
        DataflowError: on negative inputs or ``cycles == 0`` — a
            zero-cycle run is an accounting bug upstream, and clamping
            it would report arbitrarily inflated throughput.
    """
    if images < 0 or cycles < 0:
        raise DataflowError("images and cycles must be non-negative")
    if cycles == 0:
        raise DataflowError(
            "cycles must be positive to normalise throughput "
            "(zero-cycle runs indicate a cycle-accounting bug)"
        )
    return images * 1e6 / cycles


def requests_per_second(requests: int, seconds: float) -> float:
    """Serving throughput of the sharded runtime benchmark
    (``results/BENCH_serving.json``): completed single-image requests
    per second of *simulated* time — the benchmark passes the stream's
    makespan in cycles divided by the nominal shard clock.

    Raises:
        DataflowError: on negative inputs or ``seconds == 0`` — a
            zero-duration measurement carries no rate information.
    """
    if requests < 0 or seconds < 0:
        raise DataflowError("requests and seconds must be non-negative")
    if seconds == 0:
        raise DataflowError(
            "seconds must be positive to compute a request rate"
        )
    return requests / seconds


@dataclass(frozen=True)
class MeasuredThroughput:
    """Simulated throughput of one layer on one engine.

    Attributes:
        engine: "tempus" or "binary".
        cycles: total simulated cycles.
        macs: useful multiply-accumulates in the layer.
        gated_cell_cycles: clock-gated (idle/silent) cell-cycles observed.
    """

    engine: str
    cycles: int
    macs: int
    gated_cell_cycles: int

    @property
    def macs_per_cycle(self) -> float:
        return self.macs / max(self.cycles, 1)


def measured_layer_throughput(
    config,
    activations: np.ndarray,
    weights: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    engine: str = "tempus",
    mode: str = "burst",
) -> MeasuredThroughput:
    """Run one layer through a simulated engine and report throughput.

    ``engine`` is any registered compute backend
    (:func:`repro.runtime.backends.registered_backends`).  Defaults to
    the vectorized burst engine, which is bit-identical to the
    tick-level simulation, so the numbers are *measured* (per-atom burst
    timing, gating statistics included) rather than analytic — yet fast
    enough for full-scale layers.  The gemm backends have no simulation
    modes and accept only ``mode="fast"``.
    """
    # Imported here so this analysis module stays importable without the
    # core packages in docs-only contexts.
    from repro.runtime.backends import get_backend

    core = get_backend(engine).make_core(config, None, mode)
    result = core.run_layer(activations, weights, stride, padding)
    return MeasuredThroughput(
        engine=engine,
        cycles=result.cycles,
        macs=result.macs,
        gated_cell_cycles=result.gated_cell_cycles,
    )
