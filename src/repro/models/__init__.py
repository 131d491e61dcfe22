"""CNN model substrate.

The paper profiles pretrained INT8-quantized torchvision CNNs (Table I,
Figs. 7/8).  With no network access or model weights available, this package
provides:

* :mod:`repro.models.layers` — a convolution-layer IR (shapes, strides,
  groups) able to express all eight profiled CNNs.
* :mod:`repro.models.zoo` — layer-accurate topologies of the eight models
  (MobileNetV2/V3, GoogleNet, InceptionV3, ShuffleNet, ResNet18/50,
  ResNeXt101).
* :mod:`repro.models.weights` — synthetic weight generation with per-model
  distribution mixtures calibrated against the paper's published statistics
  (Table I word sparsity; Fig. 7 tile-max profiles).
* :mod:`repro.models.accuracy` — a small trainable NumPy CNN used to
  reproduce the quantization-accuracy story of Fig. 1.

``tests/models/test_calibration.py`` pins the synthetic weights to the
paper's Table I sparsities and Fig. 7/8 profiles, the statistics the
paper's experiments measure.
"""

from repro.models.layers import ConvLayerSpec
from repro.models.weights import QuantizedModel, load_quantized_model
from repro.models.zoo import MODEL_NAMES, build_model

__all__ = [
    "ConvLayerSpec",
    "MODEL_NAMES",
    "build_model",
    "QuantizedModel",
    "load_quantized_model",
]
