"""Span tracing by wrapping the package's functions from outside.

Each wrapper replaces one binding the program calls through (a module
global, or a method on a class) and records a span: label, start, end and
the index of the enclosing span. Spans stay in memory; the caller writes
them out when the run ends. Nothing under ``src/`` is edited: ``install``
patches the bindings and ``uninstall`` restores the originals.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [label, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._targets: list[tuple] = []  # (owner, attr, label, key, on_result)
        self._originals: list[tuple] = []

    # -- spans

    def open(self, label: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [label, perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def mark(self) -> int:
        return len(self.spans)

    # -- wrapping

    def add(self, owner, attr: str, label: str, key=None, on_result=None) -> None:
        """Register ``owner.attr`` for wrapping. ``key(args, kwargs)`` appends
        a suffix to the label (e.g. the conformer stack name); ``on_result``
        updates counters from the call's arguments and result."""
        self._targets.append((owner, attr, label, key, on_result))

    def install(self) -> None:
        for owner, attr, label, key, on_result in self._targets:
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, label, key, on_result))
            self._originals.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, label, key, on_result):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = label if key is None else f"{label}.{key(args, kwargs)}"
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if on_result is not None:
                on_result(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    # -- aggregation

    def self_times(self, start: int, stop: int):
        """Per label: (calls, self seconds, total seconds) over spans[start:stop].
        Self time is a span's duration minus the time its child spans cover."""
        covered = defaultdict(float)
        for i in range(start, stop):
            _, t0, t1, parent = self.spans[i]
            if parent >= start:
                covered[parent] += t1 - t0
        calls: Counter = Counter()
        self_s: dict = defaultdict(float)
        total_s: dict = defaultdict(float)
        for i in range(start, stop):
            label, t0, t1, _ = self.spans[i]
            calls[label] += 1
            self_s[label] += (t1 - t0) - covered[i]
            total_s[label] += t1 - t0
        return calls, self_s, total_s

