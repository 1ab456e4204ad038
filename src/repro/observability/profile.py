"""Run-level profile artifact and its renderers.

A :class:`RunProfile` is a view over the per-rank
:class:`~repro.observability.telemetry.FlightRing` snapshots that
``run_spmd`` gathers from every run with the flight recorder on (the
default), with three renderers:

``chrome_trace()``
    Chrome ``trace_event`` JSON — one lane (``tid``) per rank, nested
    sweep/phase/kernel/collective spans as complete (``"X"``) events —
    loadable directly in ``chrome://tracing`` or Perfetto.  Lanes are
    aligned on a shared wall-clock axis via each rank's recorded
    ``wall_origin``, so cross-rank wait chains line up visually.
``metrics()``
    Per-rank counters/gauges/histograms as plain JSON.
``timeline()``
    The extended ASCII view — one lane per rank — reusing the
    simulator's :func:`~repro.vmpi.trace.render_lanes`.

:func:`validate_chrome_trace` is the schema check the tests and the CI
``profile-smoke`` job run against the emitted JSON.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.observability.spans import merge_intervals
from repro.observability.telemetry import FlightRing
from repro.vmpi.trace import render_lanes

__all__ = ["RunProfile", "validate_chrome_trace"]


class RunProfile:
    """Flight rings of every rank of one ``run_spmd`` launch.

    Cheap to build: spans are rebuilt from the events only when a
    renderer asks for them.
    """

    def __init__(self, ranks: Iterable[FlightRing]) -> None:
        self.ranks: list[FlightRing] = sorted(ranks, key=lambda p: p.rank)
        if not self.ranks:
            raise ValueError("RunProfile needs at least one rank")
        #: shared time origin: the earliest rank's recorder epoch.
        self.wall_origin = min(p.wall_origin for p in self.ranks)

    @classmethod
    def from_ranks(cls, rings: Mapping[int, FlightRing]) -> "RunProfile":
        """From the ``profile_out`` dict ``run_spmd`` fills."""
        return cls(rings.values())

    @property
    def size(self) -> int:
        return len(self.ranks)

    def shift(self, profile: FlightRing) -> float:
        """Seconds between the run origin and this rank's epoch."""
        return profile.wall_origin - self.wall_origin

    # -- renderers ----------------------------------------------------------

    def chrome_trace(self) -> dict[str, Any]:
        """``trace_event`` JSON object: one ``tid`` lane per rank."""
        events: list[dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 0,
                "tid": 0,
                "args": {"name": "mp run"},
            }
        ]
        for p in self.ranks:
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": p.rank,
                    "args": {"name": f"rank {p.rank}"},
                }
            )
        for p in self.ranks:
            shift = self.shift(p)
            for s in p.spans:
                events.append(
                    {
                        "name": s.name,
                        "cat": s.category,
                        "ph": "X",
                        "ts": (shift + s.start) * 1e6,
                        "dur": s.seconds * 1e6,
                        "pid": 0,
                        "tid": p.rank,
                        "args": {
                            "phase": s.phase,
                            "depth": s.depth,
                        },
                    }
                )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def metrics(self) -> dict[str, Any]:
        """Per-rank metrics snapshot as one JSON-able object."""
        return {
            "ranks": {
                str(p.rank): {
                    "spans": len(p.spans),
                    "dropped": p.dropped,
                    **p.metrics,
                }
                for p in self.ranks
            }
        }

    def timeline(
        self, *, width: int = 72, category: str = "phase"
    ) -> str:
        """ASCII view: one lane per rank, busy = in-``category`` spans,
        on the shared wall-clock axis."""
        lanes = []
        for p in self.ranks:
            shift = self.shift(p)
            intervals = merge_intervals(
                [
                    (shift + s.start, shift + s.end)
                    for s in p.spans
                    if s.category == category
                ]
            )
            lanes.append((f"rank {p.rank}", intervals))
        return render_lanes(
            lanes, width=width, lane_header="rank", unit="measured s"
        )


def validate_chrome_trace(obj: Any) -> None:
    """Raise ``ValueError`` unless ``obj`` is a well-formed JSON-object
    format ``trace_event`` document (the subset we emit: ``"M"``
    metadata and ``"X"`` complete events)."""

    def fail(msg: str) -> None:
        raise ValueError(f"invalid trace_event document: {msg}")

    if not isinstance(obj, dict) or "traceEvents" not in obj:
        fail("top level must be an object with 'traceEvents'")
    events = obj["traceEvents"]
    if not isinstance(events, list) or not events:
        fail("'traceEvents' must be a non-empty list")
    for i, e in enumerate(events):
        if not isinstance(e, dict):
            fail(f"event {i} is not an object")
        if not isinstance(e.get("name"), str):
            fail(f"event {i} has no string 'name'")
        ph = e.get("ph")
        if ph not in ("X", "M"):
            fail(f"event {i} has unsupported phase {ph!r}")
        for key in ("pid", "tid"):
            if not isinstance(e.get(key), int):
                fail(f"event {i} has no integer {key!r}")
        if ph == "X":
            ts, dur = e.get("ts"), e.get("dur")
            if not isinstance(ts, (int, float)) or ts < 0:
                fail(f"event {i} has invalid 'ts' {ts!r}")
            if not isinstance(dur, (int, float)) or dur < 0:
                fail(f"event {i} has invalid 'dur' {dur!r}")
