"""Span and metrics vocabulary of the per-rank flight recorder.

The paper's evidence is per-phase time breakdowns (Figs. 2-9); the
executed process-parallel layer records the measured-time side in one
event stream per rank,
:class:`~repro.observability.telemetry.FlightRecorder`.  Its spans —
sweeps, algorithm phases, local kernels, and each collective — are
rebuilt from the ring's begin/end events as :class:`Span` records, and
its :class:`MetricsRegistry` accumulates per-rank counters, gauges, and
log-bucketed histograms (bytes moved, TTM flops, cache hits and
evictions, checkpoint write time, collective wait-vs-transfer split).

Nothing here touches the payload path, so recorder-on runs stay
bit-identical to ``CommConfig(flight=False)`` runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

__all__ = [
    "SPAN_CATEGORIES",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "merge_intervals",
]

#: Nesting order of the instrumented layers, outermost first: driver
#: sweeps contain algorithm phases contain local kernels and
#: collectives.
SPAN_CATEGORIES = ("sweep", "phase", "kernel", "collective")


@dataclass(frozen=True)
class Span:
    """One finished span on one rank.

    ``start`` is seconds since the rank's recorder epoch
    (``perf_counter``-based, monotonic);
    :attr:`~repro.observability.telemetry.FlightRing.wall_origin` maps
    the epoch to wall-clock time so lanes from different ranks can be
    aligned on one axis.
    """

    name: str
    category: str
    phase: str
    start: float
    seconds: float
    depth: int

    @property
    def end(self) -> float:
        return self.start + self.seconds


# Histogram buckets are powers of two spanning ~1 microsecond to ~2^31
# seconds; values are durations/sizes, so a fixed log2 grid gives
# mergeable per-rank distributions with no per-observation allocation.
_BUCKET_LO_EXP = -20
_BUCKET_COUNT = 52


class Histogram:
    """Fixed log2-bucketed histogram with count/total/min/max."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets = [0] * _BUCKET_COUNT

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value > 0:
            _, exp = math.frexp(value)
            idx = min(max(exp - _BUCKET_LO_EXP, 0), _BUCKET_COUNT - 1)
        else:
            idx = 0
        self.buckets[idx] += 1

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict form: stats plus ``{upper_bound: count}`` for the
        non-empty buckets (bounds are ``2.0**k`` seconds/units)."""
        if self.count == 0:
            return {"count": 0, "total": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.total / self.count,
            "min": self.min,
            "max": self.max,
            "buckets": {
                format(2.0 ** (i + _BUCKET_LO_EXP), ".3g"): n
                for i, n in enumerate(self.buckets)
                if n
            },
        }


class MetricsRegistry:
    """Per-rank named counters, gauges, and histograms.

    Counters accumulate (``inc``), gauges hold the last value
    (``gauge``), histograms record distributions (``observe``).  All
    three namespaces are independent dicts keyed by metric name; the
    hot paths are a dict lookup plus a float add.
    """

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    def inc(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict copy of all three namespaces.

        Tolerant of concurrent writers: the telemetry pusher
        snapshots a registry the rank is still updating, so a
        histogram inserted mid-iteration (RuntimeError from the
        comprehension) just retries — values read during a retry
        window are each internally consistent, which is all a
        heartbeat needs.
        """
        for _ in range(8):
            try:
                return {
                    "counters": dict(self.counters),
                    "gauges": dict(self.gauges),
                    "histograms": {
                        k: h.snapshot()
                        for k, h in self.histograms.items()
                    },
                }
            except RuntimeError:  # dict resized mid-iteration
                continue
        # Writer is inserting faster than we can iterate (pathological
        # — metric *names* are created once, then updated in place).
        # Fall back to whatever names are stable right now.
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                k: self.histograms[k].snapshot()
                for k in tuple(self.histograms)
                if k in self.histograms
            },
        }


def merge_intervals(
    intervals: list[tuple[float, float]],
) -> list[tuple[float, float]]:
    """Union of possibly-nested/overlapping intervals, sorted."""
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            last_start, last_end = merged[-1]
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged
