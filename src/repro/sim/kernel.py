"""Cycle simulator and module base class.

Two stepping granularities share one clock:

* :meth:`CycleSimulator.step` / :meth:`~CycleSimulator.run_until` tick every
  module once per clock edge — the tick-level engine used for waveform
  traces and protocol tests.
* :meth:`CycleSimulator.run_events` ticks every module once per *event*
  and jumps the clock by the cycles that event spanned — the burst-level
  engine: a module that executes a whole multi-cycle burst in one
  vectorized tick reports the burst length and the simulator skips
  straight past the silent edges.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Iterable

from repro.errors import SimulationError


class Module(ABC):
    """A clocked hardware block.

    Subclasses implement :meth:`tick` (one rising clock edge) and
    :meth:`reset`.  Composite modules own their children and call the
    children's ``tick`` in dataflow order inside their own.
    """

    def __init__(self, name: str) -> None:
        self.name = name

    @abstractmethod
    def reset(self) -> None:
        """Return all state to power-on values."""

    @abstractmethod
    def tick(self) -> None:
        """Advance one clock cycle."""


class CycleSimulator:
    """Drives a set of top-level modules in lockstep.

    The simulator is deliberately simple: modules are ticked in registration
    order once per cycle, and communication happens through explicit channel
    objects, so there is no delta-cycle scheduling to reason about.
    """

    def __init__(self, modules: Iterable[Module] | None = None) -> None:
        self._modules: list[Module] = list(modules) if modules else []
        self.cycle = 0

    def add(self, module: Module) -> Module:
        self._modules.append(module)
        return module

    def reset(self) -> None:
        self.cycle = 0
        for module in self._modules:
            module.reset()

    def _tick_all(self) -> None:
        for module in self._modules:
            module.tick()

    def step(self, cycles: int = 1) -> int:
        """Advance ``cycles`` clock edges; returns the new cycle count."""
        if cycles < 0:
            raise SimulationError(f"cannot step {cycles} cycles")
        for _ in range(cycles):
            self._tick_all()
            self.cycle += 1
        return self.cycle

    def run_until(
        self, condition: Callable[[], bool], max_cycles: int = 1_000_000
    ) -> int:
        """Step until ``condition()`` holds; returns cycles consumed.

        Raises:
            SimulationError: if the condition is still false after
                ``max_cycles`` (deadlock guard).
        """
        start = self.cycle
        while not condition():
            if self.cycle - start >= max_cycles:
                raise SimulationError(
                    f"condition not met within {max_cycles} cycles "
                    f"(possible deadlock)"
                )
            self.step()
        return self.cycle - start

    def run_events(
        self,
        condition: Callable[[], bool],
        span: Callable[[], int],
        max_cycles: int = 1_000_000,
    ) -> int:
        """Event-skip companion to :meth:`run_until`.

        Each iteration ticks every module once, then advances the clock by
        ``span()`` — the number of hardware cycles the modules just modeled
        (e.g. a whole tub burst).  ``span`` is sampled *after* the tick;
        spans below 1 clamp to 1 so idle events still make progress.

        Returns cycles consumed; raises :class:`SimulationError` past
        ``max_cycles`` (deadlock guard).
        """
        start = self.cycle
        while not condition():
            if self.cycle - start >= max_cycles:
                raise SimulationError(
                    f"condition not met within {max_cycles} cycles "
                    f"(possible deadlock)"
                )
            self._tick_all()
            self.cycle += max(1, int(span()))
        return self.cycle - start
