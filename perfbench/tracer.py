"""In-memory spans: name, start, end, parent span and request id.

Spans are kept in a list while the traced run works and written out once at
the end.  ``extra`` marks bench-issued work the untraced workload does not
do (for example the re-multiplication after a division); it is timed so
its layer is measured, and left out when the trace is compared with the
untraced wall time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.request = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, extra: bool = False, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "request": self.request,
            "extra": extra,
            "attrs": attrs,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()


def durations(spans: list[dict]) -> tuple[dict[int, float], dict[int, float], dict[int, float]]:
    """Per span id: duration, self time and time in extra descendants, in
    seconds.  Self time is the duration minus the time its children cover;
    children never overlap because the run is single-threaded."""
    dur = {s["id"]: (s["end_ns"] - s["start_ns"]) / 1e9 for s in spans}
    child = dict.fromkeys(dur, 0.0)
    extra = dict.fromkeys(dur, 0.0)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += dur[s["id"]]
    # Spans are appended in start order, so walking backwards accumulates
    # each subtree's extra time before its parent is visited.
    for s in reversed(spans):
        own = dur[s["id"]] if s["extra"] else extra[s["id"]]
        if s["parent"] is not None:
            extra[s["parent"]] += own
    selft = {i: dur[i] - child[i] for i in dur}
    return dur, selft, extra
