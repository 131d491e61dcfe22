"""NVDLA-style convolution pipeline (the paper's baseline substrate).

Models the nv_small-flavoured convolution pipeline of Fig. 3: the
convolution buffer (CBUF) holding activations and weights, the convolution
sequence controller (CSC) that splits data cubes into 1x1xn atoms and
broadcasts feature data to the k MAC cells, the binary CMAC array, and the
convolution accumulator (CACC), plus the SDP (requantization/activation)
and PDP (pooling) units behind it.  The behavioral models are bit-exact
against a NumPy golden convolution; netlist builders in
:mod:`repro.nvdla.hwmodel` provide the synthesis-side view of the same
hardware.  Whole networks of conv -> SDP -> PDP stages compile and run in
:mod:`repro.runtime`.
"""

from repro.nvdla.config import NV_SMALL, CoreConfig
from repro.nvdla.dataflow import ConvShape, golden_conv2d
from repro.nvdla.conv_core import ConvolutionCore, ConvResult
from repro.nvdla.pdp import Pdp, PdpConfig
from repro.nvdla.sdp import Sdp, SdpConfig

__all__ = [
    "CoreConfig",
    "NV_SMALL",
    "ConvShape",
    "golden_conv2d",
    "ConvolutionCore",
    "ConvResult",
    "Sdp",
    "SdpConfig",
    "Pdp",
    "PdpConfig",
]
