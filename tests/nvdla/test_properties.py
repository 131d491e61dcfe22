"""Property-based tests for the NVDLA substrate's post-processing
units (SDP requantization, PDP pooling)."""

import numpy as np
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from repro.nvdla.pdp import Pdp, PdpConfig
from repro.nvdla.sdp import Sdp, SdpConfig, requant_params_from_scale
from repro.utils.intrange import INT8

int8 = st.integers(min_value=-128, max_value=127)
psums = st.integers(min_value=-(1 << 20), max_value=(1 << 20) - 1)


@given(
    values=arrays(np.int64, (2, 3, 3), elements=psums),
    shift=st.integers(min_value=0, max_value=12),
)
def test_sdp_requant_bounded_error(values, shift):
    """Integer requantization tracks the real-valued scale within one
    output LSB."""
    sdp = Sdp(SdpConfig(out_precision=INT8, multiplier=3, shift=shift))
    out = sdp.apply(values)
    reference = INT8.clip(np.round(values * (3 / (1 << shift))))
    assert np.max(np.abs(out - reference)) <= 1


@given(values=arrays(np.int64, (2, 2, 2), elements=psums))
def test_sdp_relu_never_negative(values):
    sdp = Sdp(
        SdpConfig(out_precision=INT8, multiplier=1, shift=4,
                  activation="relu")
    )
    assert sdp.apply(values).min() >= 0


@given(scale=st.floats(min_value=1e-6, max_value=1e3))
def test_requant_params_accurate(scale):
    multiplier, shift = requant_params_from_scale(scale)
    assert multiplier / (1 << shift) == __import__("pytest").approx(
        scale, rel=1e-3
    )


@given(values=arrays(np.int64, (3, 6, 6), elements=int8))
def test_maxpool_dominates_average(values):
    """For any tensor, per-window max >= rounded average."""
    max_out = Pdp(PdpConfig("max", kernel=2)).apply(values)
    avg_out = Pdp(PdpConfig("average", kernel=2)).apply(values)
    assert (max_out >= avg_out).all()


@given(values=arrays(np.int64, (2, 4, 4), elements=int8))
def test_maxpool_idempotent_on_constant(values):
    """Pooling a constant tensor returns the constant."""
    constant = np.full_like(values, int(values[0, 0, 0]))
    out = Pdp(PdpConfig("max", kernel=2)).apply(constant)
    assert (out == constant[0, 0, 0]).all()
