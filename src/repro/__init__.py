"""Tempus Core reproduction library.

A complete, offline reproduction of *"Tempus Core: Area-Power Efficient
Temporal-Unary Convolution Core for Low-Precision Edge DLAs"* (DATE 2025):
the tub convolution engine and its NVDLA baseline (bit-exact cycle models),
a NanGate45-style synthesis/P&R estimator, the CNN profiling pipeline, and
drivers regenerating every table and figure of the paper's evaluation.

Quickstart::

    import numpy as np
    from repro import TempusCore, ConvolutionCore, CoreConfig

    cfg = CoreConfig(k=16, n=16, precision=8)
    x = np.random.default_rng(0).integers(-128, 128, (16, 8, 8))
    w = np.random.default_rng(1).integers(-128, 128, (16, 16, 3, 3))
    tempus = TempusCore(cfg).run_layer(x, w, padding=1)
    binary = ConvolutionCore(cfg).run_layer(x, w, padding=1)
    assert (tempus.output == binary.output).all()
    print(tempus.cycles, "vs", binary.cycles, "cycles")

See README.md for the system inventory; ``python -m repro run <id>``
prints each table or figure beside the paper's values.
"""

from repro.core.tempus_core import TempusCore
from repro.core.tub_multiplier import TubMultiplier, tub_multiply
from repro.eval.experiments import EXPERIMENTS, run_experiment
from repro.nvdla.config import CoreConfig, NV_SMALL
from repro.nvdla.conv_core import ConvolutionCore, ConvResult
from repro.nvdla.dataflow import ConvShape, golden_conv2d
from repro.utils.intrange import INT2, INT4, INT8, IntSpec, int_spec

__version__ = "1.0.0"

__all__ = [
    "TempusCore",
    "ConvolutionCore",
    "ConvResult",
    "CoreConfig",
    "NV_SMALL",
    "ConvShape",
    "golden_conv2d",
    "TubMultiplier",
    "tub_multiply",
    "EXPERIMENTS",
    "run_experiment",
    "INT2",
    "INT4",
    "INT8",
    "IntSpec",
    "int_spec",
    "__version__",
]
