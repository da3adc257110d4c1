"""Outside-in span tracer.

The tracer replaces chosen functions of a package with wrappers that record
one span per call: ``(id, parent, name, thread, start, end)``. A function is
replaced under every module attribute that refers to it, so a function that
other modules imported by name (``from .dirichlet import solve_interior``) is
traced at every call site. ``restore`` puts every original object back.

Spans live in memory until the caller asks for them. Nesting is tracked per
thread; a span opened on a thread with no open span takes an explicit
fallback parent, which is how work a thread pool does on behalf of a call on
another thread is attributed to that call.

A span's self time is its duration minus the part of its interval covered by
the union of its children's intervals, so children running concurrently on
several threads are not subtracted twice.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._clock = clock
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        """Record one span; ``parent`` applies only when the thread has none open."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        sid = next(self._ids)
        stack.append(sid)
        start = self._clock()
        try:
            yield sid
        finally:
            end = self._clock()
            stack.pop()
            self.spans.append(Span(sid, parent, name, threading.get_ident(), start, end))

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, package: str, targets) -> None:
        """Replace each target everywhere in ``package``.

        ``targets`` holds ``(module, attribute, make)`` triples; ``make(original)``
        returns the replacement, and ``None`` means a plain span named
        ``"<module suffix>.<attribute>"``.
        """
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == package or key.startswith(package + "."))
        ]
        for module_name, attr, make in targets:
            original = getattr(sys.modules[module_name], attr)
            label = f"{module_name.rpartition('.')[2]}.{attr}"
            replacement = make(original) if make is not None else self.wrap(original, label)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, replacement)

    def restore(self) -> None:
        while self._patched:
            mod, key, original = self._patched.pop()
            setattr(mod, key, original)


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of every span, keyed by span id."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - _covered(children[s.id], s.start, s.end) for s in spans}


def by_name(spans) -> dict[str, dict]:
    """Per span name: call count, self seconds, total seconds."""
    selfs = self_times(spans)
    table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for s in spans:
        row = table[s.name]
        row["calls"] += 1
        row["self_s"] += selfs[s.id]
        row["total_s"] += s.duration
    return dict(table)
