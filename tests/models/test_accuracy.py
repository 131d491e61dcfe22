"""Tests for the Fig. 1 accuracy substrate."""

import numpy as np
import pytest

from repro.errors import CalibrationError
from repro.models.accuracy import (
    Dataset,
    SmallCnn,
    make_synthetic_dataset,
    quantization_sweep,
)


@pytest.fixture(scope="module")
def dataset() -> Dataset:
    return make_synthetic_dataset(train_per_class=40, test_per_class=15)


@pytest.fixture(scope="module")
def trained(dataset) -> SmallCnn:
    model = SmallCnn()
    model.train(dataset, epochs=5)
    return model


class TestDataset:
    def test_shapes(self, dataset):
        assert dataset.train_x.shape[1:] == (1, 12, 12)
        assert int(dataset.train_y.max()) + 1 == 10
        assert len(dataset.train_y) == 400

    def test_deterministic(self):
        a = make_synthetic_dataset(train_per_class=5, test_per_class=2)
        b = make_synthetic_dataset(train_per_class=5, test_per_class=2)
        assert np.array_equal(a.train_x, b.train_x)

    def test_labels_balanced(self, dataset):
        counts = np.bincount(dataset.train_y)
        assert (counts == 40).all()


class TestTraining:
    def test_loss_decreases(self, dataset):
        model = SmallCnn()
        losses = model.train(dataset, epochs=4)
        assert losses[-1] < losses[0] / 2

    def test_learns_above_chance(self, trained, dataset):
        accuracy = trained.evaluate(dataset.test_x, dataset.test_y)
        assert accuracy > 0.7  # chance is 0.1

    def test_forward_shapes(self, trained, dataset):
        logits = trained.forward(dataset.test_x[:8])
        assert logits.shape == (8, 10)

    def test_image_size_validation(self):
        with pytest.raises(CalibrationError):
            SmallCnn(image_size=10)


class TestQuantizationSweep:
    def test_fp32_baseline_first(self, trained, dataset):
        sweep = quantization_sweep(trained, dataset, widths=(8,))
        assert sweep[0].precision == "FP32"
        assert sweep[0].drop == 0.0

    def test_int8_negligible_drop(self, trained, dataset):
        sweep = quantization_sweep(trained, dataset, widths=(8,))
        assert sweep[1].drop < 0.05

    def test_monotone_degradation_trend(self, trained, dataset):
        """Fig. 1's shape: INT4 stays close to FP32, INT2 collapses."""
        sweep = quantization_sweep(trained, dataset, widths=(8, 4, 2))
        by_name = {entry.precision: entry for entry in sweep}
        assert by_name["INT4"].drop < 0.10
        assert by_name["INT2"].drop > by_name["INT4"].drop

    def test_weight_override_inference(self, trained, dataset):
        """Supplying explicit FP32 weights reproduces the baseline."""
        weights = {
            "conv1": trained.conv1.weight,
            "conv2": trained.conv2.weight,
            "fc": trained.fc_weight,
        }
        base = trained.evaluate(dataset.test_x, dataset.test_y)
        override = trained.evaluate(
            dataset.test_x, dataset.test_y, weights=weights
        )
        assert base == override
