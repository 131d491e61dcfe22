"""In-memory span tracer for the traced benchmark run.

Spans are recorded from the benchmark's own code: :meth:`Tracer.wrap`
temporarily replaces a public function or method of the program with a
wrapper that records one span per call, and :meth:`Tracer.restore`
puts the originals back.  Each span has a name, start, end, parent
span and request id; parents follow a per-thread stack, so spans
recorded on different threads never nest into each other.  Spans stay
in memory and are written out when the run ends.

The wrapped names are looked up at call time, so a wrapper only sees
calls made in this process: work done in a forked serving worker is
not traced.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: "int | None"
    request: "int | None"

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
        }


class Tracer:
    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: "list[tuple]" = []
        self._next_id = 0

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        """Open a span on this thread.  A root span starts a request:
        its id is the request id every span below it shares."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(
            span_id,
            name,
            time.perf_counter(),
            0.0,
            None if parent is None else parent.id,
            span_id if parent is None else parent.request,
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def record(self, name, start, end, request=None) -> None:
        """A span measured elsewhere (e.g. submit → response, which
        ends on another thread)."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            self.spans.append(
                Span(span_id, name, start, end, None, request)
            )

    # -- patching ------------------------------------------------------
    def wrap(self, owner, attribute: str, name: str) -> None:
        """Record a span around every call of ``owner.attribute``."""
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(span)

        setattr(owner, attribute, traced)
        self._patched.append((owner, attribute, original))

    def restore(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- reduction -----------------------------------------------------
    def summary(self) -> dict:
        """Per span name: ``{"calls", "total_s", "self_s"}``, where
        self time is the span's duration minus the part of it that its
        child spans cover."""
        child_time: "dict[int, float]" = {}
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] = child_time.get(
                    span.parent, 0.0
                ) + (span.end - span.start)
        out: "dict[str, dict]" = {}
        for span in self.spans:
            duration = span.end - span.start
            entry = out.setdefault(
                span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += max(
                duration - child_time.get(span.id, 0.0), 0.0
            )
        return out

    def export(self) -> list:
        return [span.as_dict() for span in self.spans]
