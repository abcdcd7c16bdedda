"""Spans around the benchmark's own calls into latinplex.

Every call a query makes goes through `tracer.call(name, fn, ...)`.  The
untraced run uses NullTracer, which only calls through; the traced run uses
Tracer, which keeps one span per call in memory (name, start, end, parent
span, query id) and writes them out when the run ends.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter


class NullTracer:
    query: str | None = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, name: str, value: float = 1) -> None:
        pass


class Tracer(NullTracer):
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, query id]
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        span = [name, perf_counter(), 0.0, self._open[-1] if self._open else None, self.query]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._open.pop()

    def add(self, name: str, value: float = 1) -> None:
        """Count work at the same boundary as the span, e.g. transversals found."""
        self.counters[name] += value

    def self_times(self) -> tuple[dict[str, float], Counter, dict[str, list[float]]]:
        """Per span name: total self time (duration minus the time its child
        spans cover), number of calls, and the list of durations."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s: defaultdict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        durations: defaultdict[str, list[float]] = defaultdict(list)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[idx]
            calls[name] += 1
            durations[name].append(end - start)
        return self_s, calls, durations

    def write(self, path, t0: float) -> None:
        """One JSON object per span, times in seconds from t0."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, query in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": round(start - t0, 7), "end": round(end - t0, 7),
                    "parent": parent, "query": query,
                }) + "\n")
