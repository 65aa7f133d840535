"""In-memory spans and counters for the traced benchmark run.

A span records a name, an optional tag, start and end
(``time.perf_counter``, which reads CLOCK_MONOTONIC on Linux and so is
comparable across processes) and the index of the span that was open when
it started.  Spans are kept in memory and written out once, when the
process ends; run.py files each process's spans under the operation
that started it.
"""

from __future__ import annotations

import contextlib
import time


class Tracer:
    """Collects spans and counts for one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self.peaks: dict[str, float] = {}
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, tag: str | None = None):
        record = {
            "name": name,
            "tag": tag,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks.get(name, value), value)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "peaks": self.peaks}


class NullTracer:
    """Stand-in with the same calls that records nothing (untraced runs)."""

    @contextlib.contextmanager
    def span(self, name: str, tag: str | None = None):
        yield None

    def count(self, name: str, value: float) -> None:
        pass

    def peak(self, name: str, value: float) -> None:
        pass


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name: total duration minus the time its direct children cover.

    Spans of one process nest and never overlap, so a parent's covered time
    is the sum of its children's durations.  ``parent`` indexes into the
    list the span came from, so pass one process's spans at a time.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = {}
    for s, covered in zip(spans, child_time):
        out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - covered
    return out
