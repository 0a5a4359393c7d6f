"""In-memory span tracing around calls into a program's functions.

Used only by the traced run. A ``Tracer`` wraps functions and methods, by
replacing every reference to them in the given modules (so ``from x import f``
copies are wrapped too), and records one span per call: name, start, end,
parent span, request id and thread. Spans stay in memory until the run
writes them out. Spans opened on a worker thread with no open span of their
own hang under the current fan-out span (the call that started the workers).
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request_id",
                 "thread", "error", "extra")

    def __init__(self, span_id, name, parent, request_id):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.request_id = request_id
        self.thread = threading.get_ident()
        self.start = 0.0
        self.end = 0.0
        self.error = None
        self.extra = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "request_id": self.request_id, "thread": self.thread,
                "error": self.error, **self.extra}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._fanout = None
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, *, request=False, fanout=False, cpu=False, hook=None):
        """Wrap fn so each call records a span.

        name is a string or a callable of (args, kwargs) giving one. A
        ``request`` span starts a new request id; a ``fanout`` span is the
        parent of spans opened on worker threads while it is open; ``cpu``
        records the calling thread's CPU time; ``hook(span, args, outcome)``
        may add fields to ``span.extra``, where outcome is the result or the
        exception raised.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._fanout
            span_id = next(tracer._ids)
            if request:
                request_id = span_id
            else:
                request_id = parent.request_id if parent is not None else None
            span = Span(span_id, name(args, kwargs) if callable(name) else name,
                        parent.id if parent is not None else None, request_id)
            stack.append(span)
            outer_fanout = tracer._fanout
            if fanout:
                tracer._fanout = span
            cpu_start = time.thread_time() if cpu else 0.0
            span.start = time.perf_counter()
            outcome = None
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except BaseException as exc:
                span.error = type(exc).__name__
                outcome = exc
                raise
            finally:
                span.end = time.perf_counter()
                if cpu:
                    span.extra["cpu_s"] = time.thread_time() - cpu_start
                if fanout:
                    tracer._fanout = outer_fanout
                stack.pop()
                if hook is not None:
                    hook(span, args, outcome)
                tracer.spans.append(span)

        return traced

    def counted(self, name, fn):
        """Wrap fn to count its calls without recording spans."""
        tracer = self

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            tracer.counts[name] = tracer.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counting

    def patch(self, owner, attr, wrapped, module_prefix):
        """Replace owner.attr, and every module-level alias of it, with wrapped."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith(module_prefix) and module is not None:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapped)

    def unpatch(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self):
        self.spans = []
        self.counts = {}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of intervals."""
    total = 0.0
    cursor = start
    for s, e in sorted(intervals):
        s, e = max(s, cursor), min(e, end)
        if e > s:
            total += e - s
            cursor = e
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {span.id: span.duration - covered(span.start, span.end,
                                             children.get(span.id, ()))
            for span in spans}


def overhead_frac(traced_s, untraced_s) -> float:
    """Relative slowdown of the median traced pass over the median untraced one."""
    return statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
