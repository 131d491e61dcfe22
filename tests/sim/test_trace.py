"""Tests for the trace recorder."""

from repro.sim.trace import TraceRecorder


class TestTraceRecorder:
    def test_series_with_gaps(self):
        trace = TraceRecorder()
        trace.sample(0, "sig", 1)
        trace.sample(2, "sig", 3)
        assert trace.series("sig") == [1, None, 3]

    def test_sample_many(self):
        trace = TraceRecorder()
        trace.sample_many(0, {"a": 1, "b": 2})
        assert trace.series("a") == [1]
        assert trace.series("b") == [2]

    def test_value_at_missing(self):
        trace = TraceRecorder()
        trace.sample(0, "sig", 1)
        assert trace.series("nope") == [None]

    def test_render_contains_signals_and_cycles(self):
        trace = TraceRecorder()
        trace.sample(0, "acc", 5)
        trace.sample(1, "acc", 10)
        text = trace.render(title="T")
        assert "acc" in text
        assert "10" in text
        assert text.startswith("T")

    def test_signal_order_preserved(self):
        trace = TraceRecorder()
        trace.sample(0, "z_first", 0)
        trace.sample(0, "a_second", 0)
        header = trace.render().splitlines()[0]
        assert header.index("z_first") < header.index("a_second")
