"""In-memory spans recorded by the benchmark around each call into a layer.

A span has a name (``<layer>.<operation>``), start and end times, the index
of the span that was open when it started, a trial id, and any counts the
caller attaches at that boundary.  Spans are kept in a list and written out
once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.trial = None

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block; yields a dict for counts taken there."""
        record = {
            "name": name,
            "trial": self.trial,
            "parent": self._open[-1] if self._open else None,
            "counts": {},
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        record["start"] = time.perf_counter()
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def totals(self) -> tuple[dict, dict]:
        """Self time summed per span name, and counts summed per ``name.key``."""
        seconds = defaultdict(float)
        counts = defaultdict(int)
        for s, own in zip(self.spans, self.self_times()):
            seconds[s["name"]] += own
            for key, value in s["counts"].items():
                counts[f"{s['name'].split('.')[0]}.{key}"] += value
        return dict(seconds), dict(counts)

    def top_level_seconds(self) -> float:
        """Time covered by the spans that opened with no other span open."""
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] is None)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh, indent=1)
            fh.write("\n")
