"""Convolution buffer (CBUF) model.

The CBUF stores the input feature cube and the filter weights and serves
atom fetches to the sequencer.  The behavioral model checks that a layer
tile actually fits the configured capacity (nv_small ships 128 KiB in 16
banks) and counts accesses for the stats report; contents are held as NumPy
tensors.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DataflowError
from repro.nvdla.dataflow import Atom, ConvShape, feature_atom, weight_atoms
from repro.utils.intrange import IntSpec


class ConvBuffer:
    """Activation + weight storage with capacity accounting."""

    def __init__(
        self,
        capacity_kib: int = 128,
        banks: int = 16,
    ) -> None:
        """Args:
        capacity_kib: total CBUF size (nv_small: 128 KiB).
        banks: bank count; activations and weights may not share a bank.
        """
        if capacity_kib < 1 or banks < 2:
            raise DataflowError("CBUF needs >=1 KiB and >=2 banks")
        self.capacity_bytes = capacity_kib * 1024
        self.banks = banks
        self.bank_bytes = self.capacity_bytes // banks
        self._activations: np.ndarray | None = None
        self._weights: np.ndarray | None = None
        self._shape: ConvShape | None = None
        self.feature_reads = 0
        self.weight_reads = 0

    @staticmethod
    def _tensor_bytes(tensor: np.ndarray, precision: IntSpec) -> int:
        bits = tensor.size * precision.width
        return (bits + 7) // 8

    def banks_needed(self, tensor_bytes: int) -> int:
        return max(1, -(-tensor_bytes // self.bank_bytes))

    def load_layer(
        self,
        shape: ConvShape,
        activations: np.ndarray,
        weights: np.ndarray,
        precision: IntSpec,
    ) -> None:
        """Load one layer tile, verifying the capacity split.

        Raises:
            DataflowError: if activations + weights cannot share the buffer.
        """
        act_banks = self.banks_needed(
            self._tensor_bytes(activations, precision)
        )
        wt_banks = self.banks_needed(self._tensor_bytes(weights, precision))
        if act_banks + wt_banks > self.banks:
            raise DataflowError(
                f"layer does not fit CBUF: activations need {act_banks} "
                f"banks, weights {wt_banks}, available {self.banks} "
                "(tile the layer before loading)"
            )
        self._activations = np.asarray(activations, dtype=np.int64)
        self._weights = np.asarray(weights, dtype=np.int64)
        self._shape = shape
        self.feature_reads = 0
        self.weight_reads = 0

    def fetch_feature(self, atom: Atom, n: int) -> np.ndarray:
        if self._activations is None:
            raise DataflowError("CBUF read before load_layer()")
        self.feature_reads += 1
        return feature_atom(self._activations, atom, n)

    def fetch_weights(self, atom: Atom, k: int, n: int) -> np.ndarray:
        if self._weights is None:
            raise DataflowError("CBUF read before load_layer()")
        self.weight_reads += 1
        return weight_atoms(self._weights, atom, k, n)
