"""Measured-time observability for the process-parallel layer.

Every rank keeps one recorder, the
:class:`~repro.observability.telemetry.FlightRecorder`: a bounded ring
of structured events (collectives, sweep/phase/kernel spans,
checkpoints, recovery steps) plus a metrics registry (:mod:`.spans`).
It is on by default; ``CommConfig(flight=False)`` is the only off
switch.  :mod:`.profile` views the rings ``run_spmd`` gathers as a
:class:`RunProfile` with Chrome-trace, metrics-JSON, and ASCII
renderers; the model-vs-measured join lives in
:mod:`repro.analysis.attribution`.

:mod:`.telemetry` also covers the runs that never reach clean
shutdown: the live out-of-band telemetry channel
(:class:`TelemetryMonitor` + ``repro top``) and the causal
:class:`Postmortem` timelines merged from all rank rings on failure.
"""

from repro.observability.profile import RunProfile, validate_chrome_trace
from repro.observability.spans import (
    SPAN_CATEGORIES,
    Histogram,
    MetricsRegistry,
    Span,
)
from repro.observability.telemetry import (
    FlightRecorder,
    FlightRing,
    Postmortem,
    TelemetryMonitor,
    TelemetryPusher,
    build_postmortem,
    merge_flight_rings,
    validate_telemetry_jsonl,
)

__all__ = [
    "SPAN_CATEGORIES",
    "FlightRecorder",
    "FlightRing",
    "Histogram",
    "MetricsRegistry",
    "Postmortem",
    "RunProfile",
    "Span",
    "TelemetryMonitor",
    "TelemetryPusher",
    "build_postmortem",
    "merge_flight_rings",
    "validate_telemetry_jsonl",
]
