"""Tests for the cycle simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import CycleSimulator, Module


class Counter(Module):
    """Increments once per tick."""

    def __init__(self, name="counter"):
        super().__init__(name)
        self.value = 0

    def reset(self):
        self.value = 0

    def tick(self):
        self.value += 1


class TestCycleSimulator:
    def test_step_advances_all_modules(self):
        a, b = Counter("a"), Counter("b")
        sim = CycleSimulator([a, b])
        sim.step(5)
        assert a.value == 5
        assert b.value == 5
        assert sim.cycle == 5

    def test_reset_restores_state(self):
        counter = Counter()
        sim = CycleSimulator([counter])
        sim.step(3)
        sim.reset()
        assert counter.value == 0
        assert sim.cycle == 0

    def test_add_module(self):
        sim = CycleSimulator()
        counter = sim.add(Counter())
        sim.step()
        assert counter.value == 1

    def test_negative_step_raises(self):
        with pytest.raises(SimulationError):
            CycleSimulator().step(-1)

    def test_run_until_condition(self):
        counter = Counter()
        sim = CycleSimulator([counter])
        consumed = sim.run_until(lambda: counter.value >= 7)
        assert consumed == 7
        assert counter.value == 7

    def test_run_until_deadlock_guard(self):
        sim = CycleSimulator([Counter()])
        with pytest.raises(SimulationError):
            sim.run_until(lambda: False, max_cycles=10)

    def test_run_until_immediately_true(self):
        sim = CycleSimulator([Counter()])
        assert sim.run_until(lambda: True) == 0

    def test_tick_order_is_registration_order(self):
        order = []

        class Probe(Module):
            def __init__(self, name):
                super().__init__(name)

            def reset(self):
                pass

            def tick(self):
                order.append(self.name)

        sim = CycleSimulator([Probe("first"), Probe("second")])
        sim.step()
        assert order == ["first", "second"]


class TestBurstStepping:
    def test_step_many_single_tick_multi_cycle(self):
        counter = Counter()
        sim = CycleSimulator([counter])
        sim.run_events(lambda: counter.value >= 1, span=lambda: 10)
        assert counter.value == 1  # one tick...
        assert sim.cycle == 10  # ...spanning ten clock edges

    def test_step_many_one_equals_step(self):
        counter = Counter()
        sim = CycleSimulator([counter])
        sim.run_events(lambda: counter.value >= 1, span=lambda: 1)
        assert counter.value == 1
        assert sim.cycle == 1

    def test_run_events_skips_by_span(self):
        counter = Counter()
        sim = CycleSimulator([counter])
        consumed = sim.run_events(
            lambda: counter.value >= 3, span=lambda: 7
        )
        assert counter.value == 3
        assert consumed == 21
        assert sim.cycle == 21

    def test_run_events_clamps_span_to_one(self):
        counter = Counter()
        sim = CycleSimulator([counter])
        sim.run_events(lambda: counter.value >= 2, span=lambda: 0)
        assert sim.cycle == 2

    def test_run_events_deadlock_guard(self):
        sim = CycleSimulator([Counter()])
        with pytest.raises(SimulationError):
            sim.run_events(lambda: False, span=lambda: 5, max_cycles=50)
