"""Tests for the modified Tempus sequence controller."""

import numpy as np

from repro.core.csc import TempusSequenceController
from repro.nvdla.cbuf import ConvBuffer
from repro.nvdla.config import CoreConfig
from repro.nvdla.csc import SequenceController
from repro.nvdla.dataflow import ConvShape
from repro.sim.handshake import ValidReadyChannel
from repro.unary.encoding import TwosUnaryCode
from repro.utils.intrange import INT8


def build(rng):
    shape = ConvShape(4, 3, 3, 4, 3, 3, padding=1)
    config = CoreConfig(k=2, n=4)
    cbuf = ConvBuffer()
    cbuf.load_layer(
        shape,
        rng.integers(-128, 128, shape.activation_shape()),
        rng.integers(-128, 128, shape.weight_shape()),
        INT8,
    )
    channel = ValidReadyChannel()
    csc = TempusSequenceController(config, shape, cbuf, channel)
    csc.reset()
    return csc, channel


class TestTempusCsc:
    def test_is_a_sequence_controller(self, rng):
        csc, _ = build(rng)
        assert isinstance(csc, SequenceController)
        assert csc.transposed_feed

    def test_schedule_identical_to_baseline(self, rng):
        """Dataflow compliance: the modified CSC issues the exact same atom
        sequence as NVDLA's."""
        csc, channel = build(rng)
        tempus_atoms = []
        while not csc.done or channel.valid:
            csc.tick()
            if channel.valid:
                tempus_atoms.append(channel.pop().atom)

        shape = csc.shape
        cbuf = csc.cbuf
        base_channel = ValidReadyChannel()
        base = SequenceController(csc.config, shape, cbuf, base_channel)
        base.reset()
        base_atoms = []
        while not base.done or base_channel.valid:
            base.tick()
            if base_channel.valid:
                base_atoms.append(base_channel.pop().atom)
        assert tempus_atoms == base_atoms

    def test_burst_cycles_for_job(self, rng):
        csc, channel = build(rng)
        csc.tick()
        job = channel.pop()
        expected = max(1, (int(np.abs(job.weight_block).max()) + 1) // 2)
        # The PCU's burst for the job: the largest weight magnitude in
        # the k x n block, halved by 2s-unary coding (min 1).
        magnitude = int(abs(job.weight_block).max())
        assert TwosUnaryCode().step_cycles(magnitude) == expected
