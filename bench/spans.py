"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer: its name, start and end on the
``perf_counter`` clock, the span that was open when it began (its
parent), the run it belongs to, and the vertex count ``n`` of the data
it worked on. Spans stay in memory and are written out once, when the
run ends.

Layers are traced from outside the library: :func:`instrument` replaces
a module attribute (the name a caller looks up at call time) with a
wrapper that opens a span, and puts every original back on exit.

While ``tracemalloc`` is tracing, each span also records the peak
allocation above its starting level, which sees numpy buffers.
Nested spans keep the outer peak correct by folding their own peak into
the parent before they reset the tracemalloc high-water mark.
"""

from __future__ import annotations

import functools
import importlib
import json
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from time import perf_counter

import numpy as np


@dataclass
class Span:
    id: int
    parent: int | None
    run: str
    name: str
    start: float
    end: float = 0.0
    n: int | None = None
    peak_bytes: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; ``run`` labels the spans opened while it is set."""

    def __init__(self):
        self.run = ""
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._mem: list[list[int]] = []  # [start level, highest level seen]

    @contextmanager
    def span(self, name: str, n: int | None = None):
        parent = self._open[-1] if self._open else None
        if n is None and parent is not None:
            n = parent.n
        span = Span(
            id=len(self.spans), parent=None if parent is None else parent.id,
            run=self.run, name=name, start=0.0, n=n,
        )
        self.spans.append(span)
        self._open.append(span)
        memory = tracemalloc.is_tracing()
        if memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], peak)
            tracemalloc.reset_peak()
            self._mem.append([current, current])
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            if memory:
                _, peak = tracemalloc.get_traced_memory()
                base, highest = self._mem.pop()
                highest = max(highest, peak)
                span.peak_bytes = highest - base
                if self._mem:
                    self._mem[-1][1] = max(self._mem[-1][1], highest)
            self._open.pop()

    def wrap(self, fn, name: str, size_arg: int | None = None, after=None):
        """Return ``fn`` traced as span ``name``.

        ``size_arg`` is the position of the argument that gives n (an
        array's first dimension or an int); ``after(args, result)``
        returns extra span attributes. It runs after the span, inside a
        ``trace.hook`` span of its own, so its cost is not charged to
        the caller's self time.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = None
            if size_arg is not None and len(args) > size_arg:
                n = _size_of(args[size_arg])
            with self.span(name, n) as span:
                result = fn(*args, **kwargs)
            if after is not None:
                with self.span("trace.hook"):
                    span.attrs.update(after(args, result))
            return result

        return traced

    def dump(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": [asdict(s) for s in self.spans]}, fh)
            fh.write("\n")


def _size_of(value) -> int | None:
    if isinstance(value, np.ndarray) and value.ndim >= 1:
        return int(value.shape[0])
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    return None


@contextmanager
def instrument(recorder: Recorder, targets):
    """Wrap each ``(module, attribute, span name, size_arg, after)`` target.

    A target missing from the library raises ``AttributeError``: a layer
    that is not traced would read as free. Every wrapped attribute is
    restored on exit, also after an error.
    """
    restore = []
    try:
        for module_name, attr, name, size_arg, after in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            restore.append((module, attr, original))
            setattr(module, attr, recorder.wrap(original, name, size_arg, after))
        yield
    finally:
        for module, attr, original in reversed(restore):
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, []), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = span.duration - covered
    return out
