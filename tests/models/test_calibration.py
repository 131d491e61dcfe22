"""Calibration lock: synthetic models must keep matching the paper's
published statistics within tolerance.

These run the full-size models and are the slowest tests in the suite; they
are the guarantee behind Table I / Figs. 7-8.
"""

import pytest

from repro.eval.paper import SECVC_WORKLOAD, TABLE1_WORD_SPARSITY
from repro.models.weights import load_quantized_model
from repro.models.zoo import MODEL_NAMES, TABLE1_LABELS
from repro.profiling.magnitude import profile_model_magnitudes
from repro.profiling.sparsity import profile_model_sparsity


@pytest.mark.slow
class TestTable1Calibration:
    @pytest.mark.parametrize(
        "name", ["mobilenet_v2", "mobilenet_v3", "shufflenet_v2",
                 "resnet50", "resnext101"]
    )
    def test_sparsity_within_band(self, name):
        """Measured word sparsity within 0.5 points of Table I."""
        model = load_quantized_model(name)
        target = TABLE1_WORD_SPARSITY[TABLE1_LABELS[name]]
        measured = model.word_sparsity() * 100
        assert abs(measured - target) < 0.5, (
            f"{name}: {measured:.2f}% vs paper {target}%"
        )


@pytest.mark.slow
class TestFig7Calibration:
    @pytest.mark.parametrize("name", ["mobilenet_v2", "resnext101"])
    def test_mean_burst_cycles_in_band(self, name):
        """Mean burst latency within 25% of the paper's 33 / 31 cycles,
        and meaningfully below the 64-cycle worst case."""
        model = load_quantized_model(name)
        profile = profile_model_magnitudes(model)
        target = SECVC_WORKLOAD[TABLE1_LABELS[name]]["mean_burst_cycles"]
        measured = profile.mean_latency_cycles()
        assert abs(measured - target) / target < 0.25
        assert measured < 48


@pytest.mark.slow
class TestFig8Calibration:
    def test_silent_pes_small_fraction_of_tile(self):
        """Both models show a small number of silent PEs per 256-lane tile
        (paper: 6 and 2).  Our synthetic zeros are i.i.d., so ResNeXt101's
        count exceeds the paper's concentrated-sparsity value."""
        mobilenet = profile_model_sparsity(
            load_quantized_model("mobilenet_v2")
        )
        resnext = profile_model_sparsity(
            load_quantized_model("resnext101")
        )
        assert 3.0 < mobilenet.mean_silent_pes() < 9.0
        assert 1.0 < resnext.mean_silent_pes() < 10.0
        for profile in (mobilenet, resnext):
            assert profile.mean_silent_pes() < 0.06 * 256
