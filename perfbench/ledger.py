"""Spans, counts and the statistics the driver reports.

The child process (``worker.py``) records a span around each call it
makes into the program and a count at the same boundary; nothing here
reaches into ``repro``.  Spans stay in memory and leave the process in
its result, once, when the operation ends.
"""

from __future__ import annotations

import contextlib
import math
import resource
import time
from collections import defaultdict
from collections.abc import Iterator


class Recorder:
    """In-memory spans and counts for one operation (one run id).

    A disabled recorder times nothing and records nothing, so an
    untraced operation pays only for the ``with`` statements.
    """

    def __init__(self, run_id: str, enabled: bool) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "run": self.run_id}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts[name] = value


def rss_peak_mb() -> float:
    """The process's resident high-water mark (VmHWM), in MB."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reset_rss_peak() -> bool:
    """Restart the high-water mark from current RSS (Linux ``clear_refs``)."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        return False
    return True


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per span name, minus the time its child spans cover."""
    covered: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]].append((s["start"], s["end"]))
    totals: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        busy = 0.0
        edge = s["start"]
        for start, end in sorted(covered.get(i, ())):
            start, end = max(start, edge), min(end, s["end"])
            if end > start:
                busy += end - start
                edge = end
        totals[s["name"]] += s["end"] - s["start"] - busy
    return dict(totals)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: of 240 samples, 12 lie beyond the 95th."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
