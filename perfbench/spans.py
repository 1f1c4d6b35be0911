"""Span bookkeeping for the traced run.

A span records a name, a start and an end on the system-wide monotonic
clock (so times taken in the benchmark process and in its children can be
compared), the id of the span that encloses it, and the operation it
belongs to.  Spans are kept in memory and written out when the child ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


def now() -> float:
    return time.monotonic()


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects the spans of one operation; nesting follows the `with` blocks."""

    def __init__(self, op: int):
        self.op = op
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next = 0

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished top-level span, such as one timed by the parent."""
        self.spans.append(Span(self._next, name, start, end, None, self.op))
        self._next += 1

    @contextmanager
    def span(self, name: str):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = now()
        try:
            yield
        finally:
            end = now()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.op))

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in sorted(self.spans, key=lambda s: s.id)]


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name, the summed duration minus the time child spans cover."""
    children: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault((s.op, s.parent), []).append((s.start, s.end))
    out: dict[str, float] = {}
    for s in spans:
        kids = children.get((s.op, s.id), [])
        own = s.duration - covered(kids, s.start, s.end)
        out[s.name] = out.get(s.name, 0.0) + own
    return out


def top_level_time(spans: list[Span], lo: float, hi: float) -> float:
    """Time inside [lo, hi] that the top-level spans cover."""
    return covered([(s.start, s.end) for s in spans if s.parent is None], lo, hi)
