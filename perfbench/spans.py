"""In-memory spans around projconst's public functions, and their self times.

Spans are recorded from the benchmark's own process: `instrument` replaces a
layer function by a timing wrapper at every place a projconst module holds a
reference to it (its defining module and each import site), and restores the
originals on exit.  Nothing under src/ is edited.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    def wrap(self, name: str, fn: Callable,
             on_result: Callable[["Tracer", object], None] | None = None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(Span(name, stack[-1] if stack else None, perf_counter()))
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid].end = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def add(self, key: str, amount: float = 1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def maximum(self, key: str, value: float):
        self.counts[key] = max(self.counts.get(key, 0), value)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - _covered(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def totals_by_name(spans: list[Span]) -> tuple[dict[str, float], dict[str, int]]:
    """Summed self seconds and call counts per span name."""
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, own in zip(spans, self_times(spans)):
        seconds[s.name] = seconds.get(s.name, 0.0) + own
        calls[s.name] = calls.get(s.name, 0) + 1
    return seconds, calls


@contextmanager
def instrument(tracer: Tracer, targets):
    """Wrap each (module, function name, span name, on_result) target.

    Every projconst module attribute bound to the original function is
    replaced, so calls that one layer makes into another are traced too.
    """
    patched = []
    try:
        for module, fname, span_name, on_result in targets:
            original = getattr(module, fname)
            wrapper = tracer.wrap(span_name, original, on_result)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "projconst" or mod is None:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, original))
        yield tracer
    finally:
        for mod, attr, original in reversed(patched):
            setattr(mod, attr, original)
