"""Tempus Core's modified convolution sequence controller.

The schedule (kernel group -> output pixel -> window position -> channel
block) is *identical* to NVDLA's — that is the dataflow-compliance claim.
Two modifications from the paper:

* **Transposed feature feed**: the PCU consumes the feature atom as a held
  column against the temporally streaming weights, exploiting
  ``W x F^T = accum(W ⊙ F)``; behaviourally the atom contents are the same,
  so this class only marks the orientation and holds each atom stable for
  the full burst (enforced naturally by channel back-pressure).
* **Weight pre-staging**: the per-lane 2s-unary encoders are loaded from
  the weight atom when the burst starts; the PCU holds the channel for
  the whole burst, so the CSC stalls by back-pressure alone.
"""

from __future__ import annotations

from repro.nvdla.csc import SequenceController


class TempusSequenceController(SequenceController):
    """CSC variant feeding the PCU."""

    #: Feature atoms are presented transposed (held column vs weight rows).
    transposed_feed = True
