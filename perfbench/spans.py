"""Span tracing from outside the program.

Layer boundaries are timed by replacing a public function at the module
binding its caller looks it up through, and restoring it afterwards; no
source file of the program is edited.  Spans are kept in memory and written
out once, when the benchmark ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int           # index into Tracer.spans, -1 for a root span
    request: int          # one id per traced command
    count: int | None = None   # a count read off the result, if any

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.request = 0

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        rec = Span(name, time.perf_counter(), 0.0, parent, self.request)
        self.spans.append(rec)
        self._open.append(idx)
        try:
            yield rec
        finally:
            self._open.pop()
            rec.end = time.perf_counter()

    def wrap(self, name: str, fn: Callable,
             count: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if count is not None:
                    rec.count = count(result)
            return result
        return traced

    @contextmanager
    def patched(self, targets):
        """Install wrappers for ``(module, attribute, span name[, count])``."""
        saved = []
        try:
            for module, attr, name, *count in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, *count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "request": s.request, "count": s.count})
                         + "\n")
