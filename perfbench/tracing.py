"""Span recording for the traced benchmark pass.

The traced pass rebinds each layer's public entry point in the module that
calls it (``halftest.learner.psgd``, ``SyntheticSource.draw``,
``halftest.sos_hyper.solve_sdp``, ...), so that every call becomes a span:
name, start, end, parent span and run id.  Spans stay in memory; the
benchmark writes them out when it ends.  Counts that need the call's
arguments or result (points drawn, in-band pairs, SDP iterations) are
computed after the run's root span has closed, so they add nothing to any
span's time.

A span's self time is its duration minus the union of the intervals its
child spans cover inside it.  Within one run of sequential code the self
times therefore sum to the root span's duration.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: Optional[int] = None
    run_id: Optional[int] = None
    counts: dict = field(default_factory=dict)
    held: list = field(default_factory=list, repr=False)  # inputs to count later

    def to_dict(self, index: int) -> dict:
        return {"id": index, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "run": self.run_id,
                "counts": self.counts}


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list) -> list:
    """Duration minus the union of child intervals, clipped to the parent."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    out = []
    for span, kids in zip(spans, children):
        clipped = [(max(spans[k].start, span.start), min(spans[k].end, span.end))
                   for k in kids]
        covered = union_length([(s, e) for s, e in clipped if e > s])
        out.append(span.end - span.start - covered)
    return out


class Tracer:
    """In-memory span recorder.

    Each thread keeps its own stack of open spans.  A span opened on a
    thread with an empty stack (a worker of a parallel stage) takes the
    current run's root span as its parent.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: Optional[int] = None
        self._run_id: Optional[int] = None
        self._deferred: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        span = Span(name, math.nan, parent=parent, run_id=self._run_id)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        span.start = self.clock()
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")
        stack.pop()

    def innermost(self) -> Optional[Span]:
        stack = self._stack()
        return self.spans[stack[-1]] if stack else None

    def defer(self, fn: Callable[[], None]) -> None:
        """Run fn when the current run's root span has closed."""
        with self._lock:
            self._deferred.append(fn)

    @contextlib.contextmanager
    def run(self, run_id: int, name: str):
        """Root span of one run; deferred counting happens after it closes."""
        if self._root is not None:
            raise RuntimeError("runs do not nest")
        self._run_id = run_id
        index = self.open(name)
        self._root = index
        try:
            yield self.spans[index]
        finally:
            self.close(index)
            self._root = None
            self._run_id = None
            deferred, self._deferred = self._deferred, []
            for fn in deferred:
                fn()

    def traced(self, name: str, fn: Callable,
               count: Optional[Callable[[dict, object, Span], dict]] = None
               ) -> Callable:
        """fn wrapped in a span.  count(arguments, result, span) returns the
        span's counts; it runs after the run's root span has closed."""
        signature = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if count is not None:
                span = self.spans[index]

                def finish():
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.counts.update(count(bound.arguments, result, span))
                self.defer(finish)
            return result
        return wrapper


@contextlib.contextmanager
def rebound(bindings):
    """Temporarily set owner.attr = value for each (owner, attr, value)."""
    saved = []
    try:
        for owner, attr, value in bindings:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
