"""Signal trace recording for cycle simulations."""

from __future__ import annotations

from collections import defaultdict

from repro.utils.tables import format_table


class TraceRecorder:
    """Records named signal values per cycle and renders waveforms.

    Used by the Fig. 2 dataflow example to print the cycle-by-cycle view of
    an INT4 tub multiplication, and by tests to assert per-cycle behaviour.
    """

    def __init__(self) -> None:
        self._samples: dict[str, dict[int, object]] = defaultdict(dict)
        self._signals: list[str] = []
        self.last_cycle = -1

    def sample(self, cycle: int, signal: str, value: object) -> None:
        if signal not in self._samples:
            self._signals.append(signal)
        self._samples[signal][cycle] = value
        self.last_cycle = max(self.last_cycle, cycle)

    def sample_many(self, cycle: int, values: dict[str, object]) -> None:
        for signal, value in values.items():
            self.sample(cycle, signal, value)

    def series(self, signal: str) -> list[object]:
        """Values of one signal across all recorded cycles (None = no
        sample)."""
        samples = self._samples.get(signal, {})
        return [samples.get(c) for c in range(self.last_cycle + 1)]

    def render(self, title: str | None = None) -> str:
        """Render the trace as a cycle-by-signal table."""
        headers = ["cycle"] + list(self._signals)
        rows = []
        for cycle in range(self.last_cycle + 1):
            row: list[object] = [cycle]
            for signal in self._signals:
                value = self._samples[signal].get(cycle, "")
                row.append(value if value is not None else "")
            rows.append(row)
        return format_table(headers, rows, title=title)
