"""Quantization-accuracy experiment (the paper's Fig. 1 story).

Fig. 1 reproduces Jain et al.'s result that ImageNet CNNs quantized with
trained thresholds lose almost no accuracy down to INT4.  Offline we cannot
train ImageNet models, so this module provides the smallest end-to-end
substrate that exercises the same code path:

* a synthetic 10-class image dataset,
* a small convolutional network trained from scratch in NumPy
  (im2col convolutions, max-pool, softmax cross-entropy, SGD+momentum),
* post-training quantization of weights *and* activations through
  :mod:`repro.quant` (percentile calibration standing in for trained
  thresholds), evaluated at INT8 down to INT3.

The headline shape to reproduce: accuracy at INT8..INT4 stays within a few
points of FP32, with a visible cliff below INT4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CalibrationError
from repro.quant.calibration import calibrate_percentile
from repro.quant.quantize import SymmetricQuantizer, fake_quantize
from repro.utils.intrange import int_spec
from repro.utils.rng import make_rng


# ----------------------------------------------------------------------
# dataset
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Dataset:
    """Train/test split of the synthetic image classification task."""

    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray

    @property
    def num_classes(self) -> int:
        return int(self.train_y.max()) + 1

    @property
    def image_size(self) -> int:
        return self.train_x.shape[-1]


def make_synthetic_dataset(
    num_classes: int = 10,
    image_size: int = 12,
    train_per_class: int = 100,
    test_per_class: int = 30,
    noise: float = 1.2,
    seed: "int | str" = "fig1",
) -> Dataset:
    """Gaussian-template images: each class is a smooth random pattern plus
    per-sample noise — hard enough that quantization error is visible, easy
    enough that a small CNN trains in seconds."""
    rng = make_rng("dataset", seed)
    coarse = rng.normal(0.0, 1.0, size=(num_classes, 1, 4, 4))
    factor = image_size // 4 + (1 if image_size % 4 else 0)
    templates = np.kron(coarse, np.ones((1, 1, factor, factor)))
    templates = templates[:, :, :image_size, :image_size]

    def sample(per_class: int) -> tuple[np.ndarray, np.ndarray]:
        images = []
        labels = []
        for cls in range(num_classes):
            batch = templates[cls] + noise * rng.normal(
                0.0, 1.0, size=(per_class, 1, image_size, image_size)
            )
            images.append(batch)
            labels.append(np.full(per_class, cls, dtype=np.int64))
        x = np.concatenate(images).astype(np.float64)
        y = np.concatenate(labels)
        order = rng.permutation(len(y))
        return x[order], y[order]

    train_x, train_y = sample(train_per_class)
    test_x, test_y = sample(test_per_class)
    return Dataset(train_x, train_y, test_x, test_y)


# ----------------------------------------------------------------------
# im2col convolution with backward pass
# ----------------------------------------------------------------------
def _im2col(x: np.ndarray, kernel: int, padding: int) -> np.ndarray:
    """(N,C,H,W) -> (N, out_h*out_w, C*k*k) patch tensor."""
    batch, channels, height, width = x.shape
    out_h = height + 2 * padding - kernel + 1
    out_w = width + 2 * padding - kernel + 1
    padded = np.pad(
        x, ((0, 0), (0, 0), (padding, padding), (padding, padding))
    )
    cols = np.empty(
        (batch, out_h * out_w, channels * kernel * kernel), dtype=x.dtype
    )
    index = 0
    for row in range(out_h):
        for col in range(out_w):
            patch = padded[:, :, row : row + kernel, col : col + kernel]
            cols[:, index, :] = patch.reshape(batch, -1)
            index += 1
    return cols


def _col2im(
    grad_cols: np.ndarray,
    x_shape: tuple[int, ...],
    kernel: int,
    padding: int,
) -> np.ndarray:
    """Adjoint of :func:`_im2col`."""
    batch, channels, height, width = x_shape
    out_h = height + 2 * padding - kernel + 1
    out_w = width + 2 * padding - kernel + 1
    padded = np.zeros(
        (batch, channels, height + 2 * padding, width + 2 * padding),
        dtype=grad_cols.dtype,
    )
    index = 0
    for row in range(out_h):
        for col in range(out_w):
            patch = grad_cols[:, index, :].reshape(
                batch, channels, kernel, kernel
            )
            padded[:, :, row : row + kernel, col : col + kernel] += patch
            index += 1
    if padding:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


class _ConvLayer:
    """3x3 same-padding convolution + bias with cached backward state."""

    def __init__(
        self, in_channels: int, out_channels: int, rng: np.random.Generator
    ) -> None:
        fan_in = in_channels * 9
        self.weight = rng.normal(
            0.0, np.sqrt(2.0 / fan_in), size=(out_channels, in_channels, 3, 3)
        )
        self.bias = np.zeros(out_channels)
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, ...] | None = None
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)

    def forward(self, x: np.ndarray, weight: np.ndarray | None = None):
        weight = self.weight if weight is None else weight
        cols = _im2col(x, 3, 1)
        self._cols = cols
        self._x_shape = x.shape
        flat = cols @ weight.reshape(weight.shape[0], -1).T + self.bias
        batch = x.shape[0]
        return (
            flat.transpose(0, 2, 1)
            .reshape(batch, weight.shape[0], x.shape[2], x.shape[3])
        )

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._cols is not None and self._x_shape is not None
        batch, out_channels, height, width = grad_out.shape
        grad_flat = grad_out.reshape(batch, out_channels, -1).transpose(
            0, 2, 1
        )
        weight_mat = self.weight.reshape(out_channels, -1)
        self.grad_weight = (
            np.einsum("npk,npc->kc", grad_flat, self._cols)
            .reshape(self.weight.shape)
        )
        self.grad_bias = grad_flat.sum(axis=(0, 1))
        grad_cols = grad_flat @ weight_mat
        return _col2im(grad_cols, self._x_shape, 3, 1)


def _maxpool2(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2x2/2 max pool; returns (pooled, argmax mask for backward)."""
    batch, channels, height, width = x.shape
    view = x.reshape(batch, channels, height // 2, 2, width // 2, 2)
    pooled = view.max(axis=(3, 5))
    mask = view == pooled[:, :, :, None, :, None]
    return pooled, mask


def _maxpool2_backward(
    grad_out: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    batch, channels, out_h, _, out_w, _ = mask.shape
    expanded = mask * grad_out[:, :, :, None, :, None]
    return expanded.reshape(batch, channels, out_h * 2, out_w * 2)


# ----------------------------------------------------------------------
# the model
# ----------------------------------------------------------------------
class SmallCnn:
    """conv(1->8) -> pool -> conv(8->16) -> pool -> fc(10)."""

    def __init__(
        self, num_classes: int = 10, image_size: int = 12, seed="fig1-cnn"
    ) -> None:
        if image_size % 4:
            raise CalibrationError("image size must be divisible by 4")
        rng = make_rng("accuracy", seed)
        self.conv1 = _ConvLayer(1, 8, rng)
        self.conv2 = _ConvLayer(8, 16, rng)
        flat = 16 * (image_size // 4) ** 2
        self.fc_weight = rng.normal(
            0.0, np.sqrt(2.0 / flat), size=(num_classes, flat)
        )
        self.fc_bias = np.zeros(num_classes)
        self._cache: dict[str, np.ndarray] = {}

    # -- forward ------------------------------------------------------
    def forward(
        self,
        x: np.ndarray,
        weights: dict[str, np.ndarray] | None = None,
        act_quant: "list | None" = None,
        record: list | None = None,
    ) -> np.ndarray:
        """Run the network.

        Args:
            x: (N, 1, S, S) images.
            weights: optional {'conv1','conv2','fc'} weight overrides
                (used for fake-quantized inference).
            act_quant: optional per-stage activation quantizers (3 entries,
                applied after each ReLU/pool stage).
            record: if given, post-stage activations are appended (used for
                calibration).
        """
        weights = weights or {}

        def maybe_quant(stage: int, tensor: np.ndarray) -> np.ndarray:
            if record is not None:
                record.append(tensor)
            if act_quant is not None and act_quant[stage] is not None:
                quantizer = act_quant[stage]
                return quantizer.dequantize(quantizer.quantize(tensor))
            return tensor

        h1 = np.maximum(
            self.conv1.forward(x, weights.get("conv1")), 0.0
        )
        p1, mask1 = _maxpool2(h1)
        p1 = maybe_quant(0, p1)
        h2 = np.maximum(
            self.conv2.forward(p1, weights.get("conv2")), 0.0
        )
        p2, mask2 = _maxpool2(h2)
        p2 = maybe_quant(1, p2)
        flat = p2.reshape(x.shape[0], -1)
        fc_weight = weights.get("fc", self.fc_weight)
        logits = flat @ fc_weight.T + self.fc_bias
        self._cache = {
            "x": x,
            "h1": h1,
            "mask1": mask1,
            "p1": p1,
            "h2": h2,
            "mask2": mask2,
            "flat": flat,
        }
        return logits

    # -- training -----------------------------------------------------
    def _backward(self, logits: np.ndarray, labels: np.ndarray) -> float:
        batch = logits.shape[0]
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=1, keepdims=True)
        loss = float(
            -np.log(probs[np.arange(batch), labels] + 1e-12).mean()
        )
        grad_logits = probs
        grad_logits[np.arange(batch), labels] -= 1.0
        grad_logits /= batch

        cache = self._cache
        self.grad_fc_weight = grad_logits.T @ cache["flat"]
        self.grad_fc_bias = grad_logits.sum(axis=0)
        grad_flat = grad_logits @ self.fc_weight
        grad_p2 = grad_flat.reshape(
            cache["h2"].shape[0],
            16,
            cache["h2"].shape[2] // 2,
            cache["h2"].shape[3] // 2,
        )
        grad_h2 = _maxpool2_backward(grad_p2, cache["mask2"])
        grad_h2 = grad_h2 * (cache["h2"] > 0)
        grad_p1 = self.conv2.backward(grad_h2)
        grad_h1 = _maxpool2_backward(grad_p1, cache["mask1"])
        grad_h1 = grad_h1 * (cache["h1"] > 0)
        self.conv1.backward(grad_h1)
        return loss

    def train(
        self,
        dataset: Dataset,
        epochs: int = 6,
        batch_size: int = 50,
        learning_rate: float = 0.05,
        momentum: float = 0.9,
        seed="fig1-train",
    ) -> list[float]:
        """SGD training; returns the per-epoch mean loss curve."""
        rng = make_rng("accuracy", seed)
        velocity = {
            "c1w": np.zeros_like(self.conv1.weight),
            "c1b": np.zeros_like(self.conv1.bias),
            "c2w": np.zeros_like(self.conv2.weight),
            "c2b": np.zeros_like(self.conv2.bias),
            "fcw": np.zeros_like(self.fc_weight),
            "fcb": np.zeros_like(self.fc_bias),
        }
        losses = []
        count = len(dataset.train_y)
        for _epoch in range(epochs):
            order = rng.permutation(count)
            epoch_loss = 0.0
            batches = 0
            for start in range(0, count, batch_size):
                idx = order[start : start + batch_size]
                logits = self.forward(dataset.train_x[idx])
                loss = self._backward(logits, dataset.train_y[idx])
                epoch_loss += loss
                batches += 1
                grads = {
                    "c1w": self.conv1.grad_weight,
                    "c1b": self.conv1.grad_bias,
                    "c2w": self.conv2.grad_weight,
                    "c2b": self.conv2.grad_bias,
                    "fcw": self.grad_fc_weight,
                    "fcb": self.grad_fc_bias,
                }
                params = {
                    "c1w": self.conv1.weight,
                    "c1b": self.conv1.bias,
                    "c2w": self.conv2.weight,
                    "c2b": self.conv2.bias,
                    "fcw": self.fc_weight,
                    "fcb": self.fc_bias,
                }
                for key, grad in grads.items():
                    velocity[key] = (
                        momentum * velocity[key] - learning_rate * grad
                    )
                    params[key] += velocity[key]
            losses.append(epoch_loss / max(batches, 1))
        return losses

    def evaluate(
        self,
        x: np.ndarray,
        y: np.ndarray,
        weights: dict[str, np.ndarray] | None = None,
        act_quant: "list | None" = None,
    ) -> float:
        """Top-1 accuracy."""
        logits = self.forward(x, weights=weights, act_quant=act_quant)
        return float(np.mean(logits.argmax(axis=1) == y))


# ----------------------------------------------------------------------
# post-training quantization sweep
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QuantAccuracy:
    """Accuracy of one quantized configuration.

    Attributes:
        precision: integer format name ("FP32" for the baseline row).
        accuracy: top-1 accuracy on the test split.
        drop: accuracy lost vs the FP32 baseline (points, >= 0 is a loss).
    """

    precision: str
    accuracy: float
    drop: float


def quantization_sweep(
    model: SmallCnn,
    dataset: Dataset,
    widths: tuple[int, ...] = (8, 6, 5, 4, 3),
    percentile: float = 99.9,
    calibration_samples: int = 200,
) -> list[QuantAccuracy]:
    """Post-training-quantize the model at several precisions.

    Weights are fake-quantized per tensor; activations are quantized with
    percentile-calibrated symmetric quantizers (the trained-threshold
    stand-in).  Returns the FP32 baseline row first.
    """
    baseline = model.evaluate(dataset.test_x, dataset.test_y)
    results = [QuantAccuracy("FP32", baseline, 0.0)]

    calib_x = dataset.train_x[:calibration_samples]
    record: list[np.ndarray] = []
    model.forward(calib_x, record=record)

    for width in widths:
        spec = int_spec(width)
        weights = {
            "conv1": fake_quantize(model.conv1.weight, spec, percentile),
            "conv2": fake_quantize(model.conv2.weight, spec, percentile),
            "fc": fake_quantize(model.fc_weight, spec, percentile),
        }
        act_quant = []
        for stage_activations in record[:2]:
            calib = calibrate_percentile(stage_activations, percentile)
            act_quant.append(
                SymmetricQuantizer.from_threshold(spec, calib.threshold)
            )
        act_quant.append(None)  # logits stay FP
        accuracy = model.evaluate(
            dataset.test_x, dataset.test_y, weights=weights,
            act_quant=act_quant,
        )
        results.append(
            QuantAccuracy(spec.name, accuracy, baseline - accuracy)
        )
    return results
