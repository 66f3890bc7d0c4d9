"""Outside-in tracing: timing wrappers installed around calls into cvpose.

A Tracer replaces chosen functions with wrappers that record one span per
call (name, start, end, parent) and optional counts taken from the call's
arguments and result. Spans stay in memory; `remove` restores every
original attribute exactly, so untraced runs call the original functions.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass

_MISSING = object()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.values = defaultdict(list)  # key -> recorded values, call order
        self._stack = []
        self._installed = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index):
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")
        self._stack.pop()
        self.spans[index].end = self.clock()

    def record(self, key, value):
        self.values[key].append(value)

    def wrap(self, owner, attr, name, observe=None):
        """Replace owner.attr (a module or class attribute) with a traced
        wrapper. `observe(tracer, result, args, kwargs)` runs after a call
        that returned; a call that raises is counted under `name.errors`
        and the exception propagates unchanged."""
        original = getattr(owner, attr)
        own = vars(owner).get(attr, _MISSING)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.record(name + ".errors", 1)
                raise
            finally:
                tracer.close(index)
            if observe is not None:
                observe(tracer, result, args, kwargs)
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, own))

    def remove(self):
        """Put back every wrapped attribute, newest first."""
        while self._installed:
            owner, attr, own = self._installed.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    # -- aggregates ---------------------------------------------------------

    def count(self, key):
        return sum(self.values.get(key, ()))

    def calls(self, name):
        return sum(1 for s in self.spans if s.name == name)

    def busy(self, name):
        return sum(self.durations(name))

    def self_durations(self, name):
        """Per span called `name`: the time its child spans do not cover."""
        return [t for s, t in zip(self.spans, self_times(self.spans))
                if s.name == name]

    def self_time(self, name):
        return sum(self.self_durations(name))

    def durations(self, name):
        return [s.duration for s in self.spans if s.name == name]


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    reach = lo
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def self_times(spans):
    """Per span: its duration minus the part of it its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.duration - covered(children[i], s.start, s.end)
            for i, s in enumerate(spans)]
