"""In-memory spans and call counts around semitall's public functions.

The wrappers are installed from outside the package by replacing module
attributes, so the program itself carries no tracing code.  Every span
records its name, start, end, parent span and the certificate it belongs
to; spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    cert: int | None
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Patches:
    """Module attributes replaced by wrappers until ``restore``."""

    def __init__(self):
        self._saved = []

    def replace(self, module, attr: str, make_wrapper) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, functools.wraps(original)(make_wrapper(original)))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


class Tracer(Patches):
    """Records a span per call of each function passed to ``span``.

    ``count`` wrappers add one to the innermost open span's counter instead
    of opening a span, which keeps cheap, frequent calls out of the span
    list.  ``cert`` is set by the caller to tag spans with a certificate.
    """

    def __init__(self, clock=time.perf_counter):
        super().__init__()
        self.clock = clock
        self.spans: list[Span] = []
        self.cert: int | None = None
        self._open: list[Span] = []

    def span(self, module, attr: str, name: str) -> None:
        def make(original):
            def wrapper(*args, **kwargs):
                parent = self._open[-1].id if self._open else None
                s = Span(len(self.spans), name, self.clock(), math.nan, parent, self.cert)
                self.spans.append(s)
                self._open.append(s)
                try:
                    return original(*args, **kwargs)
                finally:
                    s.end = self.clock()
                    self._open.pop()
            return wrapper
        self.replace(module, attr, make)

    def count(self, module, attr: str, name: str) -> None:
        def make(original):
            def wrapper(*args, **kwargs):
                if self._open:
                    counts = self._open[-1].counts
                    counts[name] = counts.get(name, 0) + 1
                return original(*args, **kwargs)
            return wrapper
        self.replace(module, attr, make)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children.

    Children of one span never overlap (one thread), so this is the part
    of the span's interval that no child covers.
    """
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.seconds
    return {s.id: s.seconds - covered[s.id] for s in spans}


def nesting_problems(spans: list[Span]) -> list[str]:
    """Spans that break the nesting ``self_times`` relies on: a span that
    ends before it starts, a child outside its parent's interval, or
    children of one parent that overlap.  Without these every self time
    is at least 0.  Empty for one thread using the ``Tracer`` stack."""
    by_id = {s.id: s for s in spans}
    out = []
    last_end: dict[int, float] = {}
    for s in spans:
        if not s.start <= s.end:
            out.append(f"span {s.id} {s.name} ends before it starts")
        if s.parent is None:
            continue
        p = by_id.get(s.parent)
        if p is None:
            out.append(f"span {s.id} {s.name} has no parent span {s.parent}")
            continue
        if not p.start <= s.start <= s.end <= p.end:
            out.append(f"span {s.id} {s.name} lies outside its parent {p.id} {p.name}")
        if s.start < last_end.get(p.id, -math.inf):
            out.append(f"span {s.id} {s.name} overlaps an earlier child of {p.id} {p.name}")
        last_end[p.id] = s.end
    return out


def percentile(values, q: int) -> float:
    """Nearest-rank percentile: the smallest sample with at least q percent
    of the samples at or below it (q an integer from 1 to 100)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    return xs[_rank(len(xs), q) - 1]


def samples_beyond(n: int, q: int) -> int:
    """Samples ranked above the nearest-rank q-th percentile of n samples."""
    return n - _rank(n, q)


def _rank(n: int, q: int) -> int:
    if not 1 <= q <= 100:
        raise ValueError(f"percentile {q} outside 1..100")
    return max(1, -(-q * n // 100))
