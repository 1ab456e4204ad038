"""Per-rank span profiler and metrics registry for the mp layer.

The paper's evidence is per-phase time breakdowns (Figs. 2-9); the
executed process-parallel layer previously recorded only collective
*counts* (:class:`~repro.vmpi.trace.CommTrace`).  This module adds the
measured-time side: a :class:`SpanProfiler` records nested spans —
sweeps, algorithm phases, local kernels, and each collective — and a
:class:`MetricsRegistry` accumulates per-rank counters, gauges, and
log-bucketed histograms (bytes moved, TTM flops, cache hits and
evictions, checkpoint write time, collective wait-vs-transfer split).

The design contract mirrors :class:`~repro.vmpi.faults.FaultPlan`:
when ``CommConfig.profile`` is off no profiler object exists and every
instrumented boundary pays exactly one ``is None`` test.  When on, a
span costs two ``perf_counter`` reads and one list append; nothing on
the payload path is touched, so profiled runs stay bit-identical to
unprofiled runs.  The span buffer is capacity-bounded (a ring buffer
that stops recording rather than wrapping, keeping the *earliest*
spans, with a ``dropped`` count) so a runaway sweep cannot exhaust
memory.

Each worker ships its :class:`RankProfile` (a plain picklable
snapshot) back through the result queue at shutdown; on rank failure
the failure report carries the partial profile plus the innermost
*open* span, so a hang or crash is attributable to a phase and a start
timestamp, not just a collective index.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any

__all__ = [
    "SPAN_CATEGORIES",
    "Histogram",
    "MetricsRegistry",
    "RankProfile",
    "Span",
    "SpanProfiler",
]

#: Nesting order of the instrumented layers, outermost first: driver
#: sweeps contain algorithm phases contain local kernels and
#: collectives.
SPAN_CATEGORIES = ("sweep", "phase", "kernel", "collective")

#: Span-buffer capacity per rank; once full, further spans are counted
#: in ``RankProfile.dropped`` instead of recorded (metrics keep
#: accumulating), bounding profiler memory.
MAX_SPANS = 1 << 16


@dataclass(frozen=True)
class Span:
    """One finished span on one rank.

    ``start`` is seconds since the rank's profiler epoch
    (``perf_counter``-based, monotonic); :attr:`RankProfile.wall_origin`
    maps the epoch to wall-clock time so lanes from different ranks can
    be aligned on one axis.
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


@dataclass(frozen=True)
class RankProfile:
    """Picklable snapshot of one rank's profiler at shutdown.

    ``open_span`` is ``None`` after a clean shutdown; on the failure
    path it names the innermost span still open when the rank died
    (name, category, phase, start offset, wall-clock start, and how
    long it had been open), which is what attributes a hang to a
    phase.
    """

    rank: int
    wall_origin: float
    spans: tuple[Span, ...]
    dropped: int
    metrics: dict[str, Any]
    open_span: dict[str, Any] | None = None

    def by_category(self, category: str) -> list[Span]:
        return [s for s in self.spans if s.category == category]

    def phase_seconds(self) -> dict[str, float]:
        """Measured seconds per phase, overlap-free.

        Phase spans of the same phase can nest (a kernel helper opens
        the phase its caller is already in), so per-phase time is the
        length of the *union* of that phase's intervals, not the sum
        of span durations.
        """
        out: dict[str, float] = {}
        for phase, intervals in self.phase_intervals().items():
            out[phase] = sum(end - start for start, end in intervals)
        return out

    def phase_intervals(self) -> dict[str, list[tuple[float, float]]]:
        """Merged ``(start, end)`` intervals of each phase's spans, in
        time order — one interval per executed phase instance."""
        raw: dict[str, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s.category == "phase":
                raw.setdefault(s.name, []).append((s.start, s.end))
        return {
            phase: merge_intervals(ivs) for phase, ivs in raw.items()
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


class SpanProfiler:
    """Low-overhead nested span recorder for one rank.

    ``begin``/``end`` bracket a span; nesting depth is the open-stack
    height.  ``end`` returns the span's duration so call sites that
    also want a histogram observation don't pay a third clock read.
    """

    __slots__ = (
        "rank",
        "capacity",
        "metrics",
        "spans",
        "dropped",
        "wall_origin",
        "_origin",
        "_stack",
    )

    def __init__(self, rank: int, capacity: int = MAX_SPANS) -> None:
        self.rank = rank
        self.capacity = capacity
        self.metrics = MetricsRegistry()
        self.spans: list[Span] = []
        self.dropped = 0
        self._stack: list[tuple[str, str, str, float]] = []
        # Both clocks sampled back to back: perf_counter drives every
        # span, wall time only anchors this rank's lane on the shared
        # cross-rank axis.
        self.wall_origin = time.time()
        self._origin = time.perf_counter()

    def begin(self, name: str, category: str, phase: str = "") -> None:
        self._stack.append(
            (name, category, phase, time.perf_counter())
        )

    def end(self) -> float:
        name, category, phase, start = self._stack.pop()
        now = time.perf_counter()
        if len(self.spans) < self.capacity:
            self.spans.append(
                Span(
                    name,
                    category,
                    phase,
                    start - self._origin,
                    now - start,
                    len(self._stack),
                )
            )
        else:
            self.dropped += 1
        return now - start

    def open_span(self) -> dict[str, Any] | None:
        """The innermost still-open span, or ``None``.

        Used by the failure path: a rank that dies mid-span reports
        what it was doing and since when (wall clock), so hangs are
        attributable to a phase, not just a collective index.
        """
        if not self._stack:
            return None
        name, category, phase, start = self._stack[-1]
        offset = start - self._origin
        return {
            "name": name,
            "category": category,
            "phase": phase,
            "start": offset,
            "wall_start": self.wall_origin + offset,
            "open_for": time.perf_counter() - start,
        }

    def finalize_transport(self, channel: Any) -> None:
        """Stamp the transport's lifetime byte/message counters as
        gauges (the "bytes moved" metrics) before snapshotting."""
        for name in (
            "sent_messages",
            "sent_bytes",
            "recv_messages",
            "recv_bytes",
            "shm_messages",
        ):
            value = getattr(channel, name, None)
            if value is not None:
                self.metrics.gauge(name, float(value))

    def rank_profile(self) -> RankProfile:
        return RankProfile(
            rank=self.rank,
            wall_origin=self.wall_origin,
            spans=tuple(self.spans),
            dropped=self.dropped,
            metrics=self.metrics.snapshot(),
            open_span=self.open_span(),
        )
