"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own code around calls into the
library's public functions; nothing inside ``src/`` is patched.  Each span
keeps its name, start, end, parent and the process RSS high-water mark
reached by its end.  A span's *self time* is its duration minus the part of
its interval that its child spans cover.
"""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


def maxrss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """``ru_maxrss`` of this process (or its reaped children) in MiB (Linux reports KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


@dataclass
class Span:
    """One recorded interval."""

    ident: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    maxrss_mb: float = 0.0

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Iterable[Tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for a, b in clipped:
        if current_start is None or a > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = a, b
        else:
            current_end = max(current_end, b)
    if current_start is not None:
        total += current_end - current_start
    return total


class Tracer:
    """Records nested spans in memory; one tracer per traced run."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self.current
        record = Span(
            ident=len(self.spans),
            name=name,
            start=self.clock(),
            end=0.0,
            parent=parent.ident if parent is not None else None,
        )
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = self.clock()
            record.maxrss_mb = maxrss_mb()
            self._stack.pop()

    def wrap_methods(self, obj: object, methods: Sequence[str], name: str) -> None:
        """Shadow ``obj``'s bound ``methods`` with spanned versions on the instance.

        A call made while a span of the same name is already open (one
        public method delegating to another) is not recorded again, so each
        span counts one outermost call.
        """
        for method in methods:
            bound = getattr(obj, method)
            setattr(obj, method, self._spanned(bound, name))

    def _spanned(self, function, name: str):
        def call(*args, **kwargs):
            current = self.current
            if current is not None and current.name == name:
                return function(*args, **kwargs)
            with self.span(name):
                return function(*args, **kwargs)

        return call

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def children(self, span: Span) -> List[Span]:
        return [other for other in self.spans if other.parent == span.ident]

    def self_time(self, span: Span) -> float:
        kids = self.children(span)
        return span.duration - covered(
            ((kid.start, kid.end) for kid in kids), span.start, span.end
        )

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(span.duration for span in self.named(name))

    def count(self, name: str) -> int:
        return len(self.named(name))

    def residual(self, start: float, end: float) -> float:
        """Wall time in ``[start, end]`` covered by no top-level span."""
        roots = ((span.start, span.end) for span in self.spans if span.parent is None)
        return (end - start) - covered(roots, start, end)

    def module_maxrss(self) -> Dict[str, float]:
        """Per module, the RSS high-water mark at the end of its last span."""
        marks: Dict[str, float] = {}
        for span in self.spans:
            marks[span.module] = max(marks.get(span.module, 0.0), span.maxrss_mb)
        return marks

    def as_records(self) -> List[dict]:
        return [
            {
                "id": span.ident,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": span.parent,
                "maxrss_mb": span.maxrss_mb,
            }
            for span in self.spans
        ]
