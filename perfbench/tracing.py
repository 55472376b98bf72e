"""In-memory spans recorded around calls into rlvrloop's public functions.

A span records its name, start, end, parent span and the run id it belongs
to. Spans are opened and closed on the benchmark's main thread only, so a
plain stack gives each span its parent. Work that runs in the program's own
worker threads (backend calls) is counted, not spanned.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; a disabled tracer records nothing and costs one call."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.run_id = ""
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.run_id)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def of_run(self, run_id: str) -> list[Span]:
        return [s for s in self.spans if s.run_id == run_id]

    def dump(self, path: Path) -> None:
        """Write every span with its self time; called once, when the run ends."""
        selfs = self_times(self.spans)
        rows = [dict(asdict(s), self_s=t) for s, t in zip(self.spans, selfs)]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows, indent=0) + "\n", encoding="utf-8")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
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


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Parents are indices into the same list, so pass a whole tracer's spans
    (or a list in which every parent index still points at the right span).
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            p = spans[s.parent]
            children.setdefault(s.parent, []).append((max(s.start, p.start), min(s.end, p.end)))
    return [s.duration - _covered(children.get(i, [])) for i, s in enumerate(spans)]


def totals(spans: list[Span]) -> dict[str, float]:
    """Summed duration per span name."""
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + s.duration
    return out
