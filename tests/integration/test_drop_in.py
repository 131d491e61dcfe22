"""Integration: the drop-in replacement story, end to end.

The paper's central systems claim is that Tempus Core replaces NVDLA's CC
without dataflow changes.  These tests run both cores (cycle-accurate,
with CBUF, sequencer, array and accumulator) over a grid of layer
geometries and check bit-exact agreement plus the latency model.
"""

import numpy as np
import pytest

from repro.core.tempus_core import TempusCore
from repro.nvdla.config import CoreConfig
from repro.nvdla.conv_core import ConvolutionCore
from repro.nvdla.dataflow import golden_conv2d
from repro.utils.intrange import INT2, INT4, INT8
from repro.utils.rng import make_rng


GEOMETRIES = [
    # (channels, size, kernels, kernel, stride, padding)
    (3, 5, 4, 3, 1, 1),
    (8, 6, 2, 3, 2, 1),
    (1, 4, 1, 1, 1, 0),
    (5, 5, 7, 3, 1, 0),
    (4, 7, 4, 5, 2, 2),
]


@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("precision", [INT2, INT4, INT8])
def test_both_cores_match_golden_cycle_accurate(geometry, precision):
    channels, size, kernels, kernel, stride, padding = geometry
    rng = make_rng("dropin", *geometry, precision.width)
    config = CoreConfig(k=2, n=4, precision=precision)
    activations = precision.random_array(rng, (channels, size, size))
    weights = precision.random_array(
        rng, (kernels, channels, kernel, kernel)
    )
    golden = golden_conv2d(activations, weights, stride, padding)
    binary = ConvolutionCore(config, mode="cycle").run_layer(
        activations, weights, stride, padding
    )
    tempus = TempusCore(config, mode="cycle").run_layer(
        activations, weights, stride, padding
    )
    assert np.array_equal(binary.output, golden)
    assert np.array_equal(tempus.output, golden)
    assert binary.atoms == tempus.atoms  # identical schedules


def test_latency_ratio_shrinks_with_precision():
    """INT4's worst-case burst (4 cycles) makes Tempus far closer to the
    binary core than at INT8 (64 cycles)."""
    rng = make_rng("latency-ratio")
    ratios = {}
    for precision in (INT8, INT4):
        config = CoreConfig(k=2, n=4, precision=precision)
        activations = precision.random_array(rng, (4, 5, 5))
        weights = precision.random_array(rng, (4, 4, 3, 3))
        binary = ConvolutionCore(config).run_layer(
            activations, weights, padding=1
        )
        tempus = TempusCore(config).run_layer(
            activations, weights, padding=1
        )
        ratios[precision.name] = tempus.cycles / binary.cycles
    assert ratios["INT4"] < ratios["INT8"] / 4


def test_nv_small_configuration_runs():
    """The nv_small-flavoured 8x8 array runs a realistic layer tile."""
    from repro.nvdla.config import NV_SMALL

    rng = make_rng("nvsmall")
    activations = INT8.random_array(rng, (8, 8, 8))
    weights = INT8.random_array(rng, (8, 8, 3, 3))
    binary = ConvolutionCore(NV_SMALL).run_layer(
        activations, weights, padding=1
    )
    tempus = TempusCore(NV_SMALL).run_layer(
        activations, weights, padding=1
    )
    assert np.array_equal(binary.output, tempus.output)
    assert binary.macs > 0 and binary.cycles > 0
