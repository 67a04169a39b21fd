"""Arithmetic of the benchmark: summaries of timings, span self time, rates.

Kept free of fklab and numpy imports so the replay child can load it before
the timed import of the package.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager

# Percentiles considered for the high tail; a percentile is reported only
# when at least ten samples lie beyond it.
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9)
MIN_TAIL_SAMPLES = 10


def summarize(values) -> dict:
    """Median of `values` with its sample count and the highest percentile
    that has at least ten samples beyond it (None when none qualifies)."""
    vals = sorted(float(v) for v in values)
    if not vals:
        raise ValueError("cannot summarize an empty sample")
    n = len(vals)
    tail = None
    for pct in TAIL_PERCENTILES:
        if round(n * (100.0 - pct) / 100.0, 9) >= MIN_TAIL_SAMPLES:
            tail = {"percentile": pct, "value": percentile(vals, pct)}
    return {"median": statistics.median(vals), "n": n, "tail": tail}


def percentile(sorted_values, pct: float) -> float:
    """Linear-interpolation percentile of an already sorted sample."""
    if not sorted_values:
        raise ValueError("empty sample")
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def rate(work: float, seconds: float) -> float:
    """Units of work per second; 0 when no work was done."""
    if work == 0:
        return 0.0
    if seconds <= 0:
        raise ValueError(f"non-positive duration {seconds!r} for {work} units of work")
    return work / seconds


def at_yardstick_speed(values, yardstick_walls, nominal_s: float) -> list[float]:
    """Scale each time to the host speed at which the yardstick takes
    `nominal_s`, by the yardstick run that came next to it: value i by
    yardstick i, and values past the last yardstick by the last one."""
    if not yardstick_walls:
        raise ValueError("no yardstick time to scale by")
    last = len(yardstick_walls) - 1
    return [v * nominal_s / yardstick_walls[min(i, last)] for i, v in enumerate(values)]


def copies_per_s(num_copies: int, repetitions: int, wall_s: float) -> float:
    """Protocol copies processed per second of wall time."""
    return rate(num_copies * repetitions, wall_s)


class Tracer:
    """In-memory span recorder.

    Each span is a dict with name, start, end (perf_counter seconds), the
    index of its parent span (None at top level) and the run id. Spans are
    appended when they open, so a parent always precedes its children.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


class NullTracer:
    """Stand-in with the Tracer interface that records nothing."""

    spans: tuple = ()

    @contextmanager
    def span(self, name: str):
        yield None


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
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


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus the part of its interval
    that its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            start = max(s["start"], parent["start"])
            end = min(s["end"], parent["end"])
            if end > start:
                children.setdefault(s["parent"], []).append((start, end))
    return [
        (s["end"] - s["start"]) - _covered(children.get(i, ()))
        for i, s in enumerate(spans)
    ]


def self_time_by_name(spans) -> dict[str, dict]:
    """Total self time and call count of the spans of each name."""
    out: dict[str, dict] = {}
    for s, t in zip(spans, self_times(spans)):
        entry = out.setdefault(s["name"], {"self_s": 0.0, "calls": 0})
        entry["self_s"] += t
        entry["calls"] += 1
    return out


def top_level_duration(spans) -> float:
    """Wall time covered by spans that have no parent."""
    return _covered([(s["start"], s["end"]) for s in spans if s["parent"] is None])
