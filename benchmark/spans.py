"""In-memory span tracing for the benchmark's traced run.

Public functions of the program are wrapped where they are looked up (the
module attribute the caller reads at call time), so the program itself is
not changed. Each call becomes one span: name, start, end, parent span and
the trace id of the frame it served. Spans stay in memory until the run
asks for them.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # index of the parent span, -1 for a root span
    trace: int  # one id per frame


def self_ns(span_start: int, span_end: int, children: list[tuple[int, int]]) -> int:
    """Span duration minus the part of [start, end] that its children cover.

    Children are clipped to the span and overlapping children are counted
    once, so the result is never negative.
    """
    covered = 0
    cursor = span_start
    for start, end in sorted(children):
        start, end = max(start, cursor), min(end, span_end)
        if end > start:
            covered += end - start
            cursor = end
    return span_end - span_start - covered


class Tracer:
    """Collects spans from wrapped functions; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.trace = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.counts: dict[str, list] = defaultdict(list)

    def _enter(self, new_trace: bool) -> tuple[int, int, int]:
        if new_trace:
            self.trace += 1
        index = len(self.spans)
        self.spans.append(None)  # type: ignore[arg-type]  # filled on exit
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent, self.trace

    def _exit(self, name: str, opened: tuple[int, int, int], start: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        index, parent, trace = opened
        self.spans[index] = Span(name, start, end, parent, trace)

    def wrap(self, name: str, fn: Callable, new_trace: bool = False,
             count: Callable | None = None) -> Callable:
        """`fn` with a span per call. `count(result, *args)` records a value
        under `name` after the span has closed, so it costs the span nothing."""

        def traced(*args, **kwargs):
            opened = self._enter(new_trace)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, opened, start)
            if count is not None:
                self.counts[name].append(count(result, *args))
            return result

        return traced

    def wrap_iter(self, name: str, fn: Callable) -> Callable:
        """`fn` returns an iterator; each `next` on it is one span and starts
        a new trace id, because each item is one frame."""
        tracer = self

        class TracedIter:
            def __init__(self, inner):
                self._inner = inner

            def __iter__(self):
                return self

            def __next__(self):
                opened = tracer._enter(True)
                start = time.perf_counter_ns()
                try:
                    return next(self._inner)
                finally:
                    tracer._exit(name, opened, start)

        return lambda *args, **kwargs: TracedIter(iter(fn(*args, **kwargs)))

    def patch(self, module: object, attr: str, wrapper: Callable) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def take(self) -> tuple[list[Span], dict[str, list]]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts, self._stack, self.trace = [], defaultdict(list), [], 0
        return spans, counts


def self_times(spans: list[Span]) -> list[int]:
    """Self time in ns of every span, by the rule of `self_ns`."""
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [self_ns(s.start, s.end, kids) for s, kids in zip(spans, children)]
