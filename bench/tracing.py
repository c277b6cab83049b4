"""In-memory spans recorded by the benchmark around its own calls into the
package, and the statistics the per-layer metrics are built from.

A span is ``(id, parent, name, start_ns, end_ns)``.  The traced run replays a
job's inputs one layer at a time, so a span's children are the calls the
package makes inside that span, replayed by the benchmark right after it on
the same inputs.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from collections import defaultdict
from typing import Any, Callable, NamedTuple


class Span(NamedTuple):
    id: int
    parent: int
    name: str
    start_ns: int
    end_ns: int

    @property
    def us(self) -> float:
        return (self.end_ns - self.start_ns) / 1e3


class Tracer:
    """Spans and per-span annotations, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.notes: dict[int, dict] = {}
        self._next_id = 1

    def new_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def call(self, name: str, parent: int, fn: Callable, *args: Any) -> tuple[int, Any]:
        """Run ``fn(*args)`` inside a span; a raising call keeps its span and
        an ``error`` note, then re-raises."""
        span_id = self.new_id()
        start = time.perf_counter_ns()
        try:
            return span_id, fn(*args)
        except Exception as exc:
            self.notes[span_id] = {"error": type(exc).__name__}
            raise
        finally:
            self.spans.append(Span(span_id, parent, name, start, time.perf_counter_ns()))

    def record(self, span_id: int, parent: int, name: str, start_ns: int, end_ns: int) -> None:
        self.spans.append(Span(span_id, parent, name, start_ns, end_ns))

    def note(self, span_id: int, **values: Any) -> None:
        self.notes.setdefault(span_id, {}).update(values)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def ok(self, name: str) -> list[Span]:
        return [s for s in self.named(name) if "error" not in self.notes.get(s.id, {})]

    def self_us(self) -> dict[int, float]:
        """Self time of every span that has children."""
        child_us: dict[int, float] = defaultdict(float)
        for s in self.spans:
            child_us[s.parent] += s.us
        return {s.id: s.us - child_us[s.id] for s in self.spans if s.id in child_us}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                record = s._asdict()
                record.update(self.notes.get(s.id, {}))
                handle.write(json.dumps(record) + "\n")


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def quantile(values, q: float) -> float:
    """Nearest-rank quantile; 0 for no samples."""
    values = sorted(values)
    if not values:
        return 0.0
    return float(values[max(0, math.ceil(q * len(values)) - 1)])


def mean(values) -> float:
    values = list(values)
    return float(statistics.fmean(values)) if values else 0.0
