"""Spans recorded around calls into the program, kept in memory.

A span is one call at a layer boundary: its name, its start and end on one
clock, the span that was open when it began (its parent) and the run it
belongs to. The tracer only ever sees the program from outside: it replaces
module and class attributes with wrappers and puts the originals back when
the traced section ends.
"""

import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    run: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records nested spans; `run` labels the spans begun while it is set."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.run = ""
        self._open = []

    def begin(self, name):
        parent = self._open[-1] if self._open else None
        span = Span(name, self.clock(), parent=parent, run=self.run)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span):
        index = self._open.pop()
        if self.spans[index] is not span:
            raise RuntimeError(f"span {span.name!r} ended while "
                               f"{self.spans[index].name!r} was innermost")
        span.end = self.clock()

    def wrap(self, fn, name, after=None):
        """`fn` inside a span; `after(span, args, kwargs, result)` runs once
        the span has closed, so what it reads is not timed."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result
        return traced


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._saved = []
        self.missing = []

    def replace(self, owner, attr, make):
        """Set owner.attr to make(current value). An attribute the owner does
        not define itself is skipped and listed in `missing`."""
        current = vars(owner).get(attr)
        if current is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._saved.append((owner, attr, current))
        setattr(owner, attr, make(current))

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def covered_length(lo, hi, intervals):
    """Length of [lo, hi] that the union of the (start, end) intervals covers."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def children(spans):
    """Indices of each span's direct children."""
    out = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent is not None:
            out[span.parent].append(i)
    return out


def self_times(spans):
    """Each span's duration minus the part of it its direct children cover."""
    kids = children(spans)
    return [
        span.duration - covered_length(
            span.start, span.end, [(spans[k].start, spans[k].end) for k in kids[i]])
        for i, span in enumerate(spans)
    ]


def ancestors(spans, index):
    """Indices of the spans enclosing spans[index], innermost first."""
    parent = spans[index].parent
    while parent is not None:
        yield parent
        parent = spans[parent].parent


def outermost(spans, names):
    """Indices of spans named in `names` that no other such span encloses, so
    summing their durations counts nested or recursive calls once."""
    names = set(names)
    return [i for i, span in enumerate(spans)
            if span.name in names
            and not any(spans[a].name in names for a in ancestors(spans, i))]
