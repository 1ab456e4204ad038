"""Per-rank flight recorder, live telemetry streaming, and causal postmortems.

Three cooperating pieces, NCCL-flight-recorder style:

``FlightRecorder``
    The one recorder of every rank (``CommConfig.flight``, on by
    default): a bounded ring of structured events plus a
    :class:`~repro.observability.spans.MetricsRegistry`.  Each event is
    a plain tuple ``(seq, t, kind, op_id, phase, detail)`` where ``seq``
    is a monotonically increasing per-rank counter (so dropped events
    are visible after the ring wraps), ``t`` is a ``perf_counter``
    offset from the recorder's origin and ``op_id`` is the rank's
    collective sequence number.  Spans are events too: a collective's
    span is its ``collective_begin``/``collective_end`` pair, and
    sweeps, phases and kernels open and close with
    ``span_begin``/``span_end`` through :meth:`FlightRecorder.begin` /
    :meth:`FlightRecorder.end`.  Recording an event is one clock read
    plus one deque append; nothing on the payload path is touched, so
    armed runs stay bit-identical.  :class:`FlightRing`, the picklable
    snapshot every rank ships home, rebuilds the spans, phase
    intervals and open span from its events — the per-rank view behind
    :class:`~repro.observability.profile.RunProfile`.

``TelemetryPusher`` / ``TelemetryMonitor``
    Out-of-band live telemetry: a daemon thread per rank periodically emits
    heartbeat samples (sweep progress, residual/rank trajectory, current
    phase, blocked-collective info, the metrics snapshot) over the
    existing control plane, the launcher's result queue (the same on
    both wires), and one last sample when it stops.  The monitor
    aggregates latest-state per rank, flags stalls *before*
    ``CollectiveTimeoutError`` fires, renders the ``repro top`` console
    view and exports a JSONL event log.

``build_postmortem``
    On failure, all rank rings are merged into one causally-ordered global
    timeline using collective sequence numbers and a per-rank
    last-known-state report that names the diverging rank and collective.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.observability.spans import MetricsRegistry, Span, merge_intervals

__all__ = [
    "FlightRecorder",
    "FlightRing",
    "Postmortem",
    "TelemetryMonitor",
    "TelemetryPusher",
    "build_postmortem",
    "format_event",
    "merge_flight_rings",
    "validate_telemetry_jsonl",
]

# Merge order inside one collective sequence number: every rank's begin
# happens before any in-flight post, which happens before any rank's end,
# which happens before whatever the rank does next at the same op_id.
_STAGE = {"collective_begin": 0, "post": 1, "collective_end": 2}

TELEMETRY_SCHEMA_VERSION = 1

#: Ring capacity (events per rank) of the flight recorder.  Once full,
#: the oldest events are dropped, so a postmortem keeps the end of the
#: run (the monotone ``seq`` makes the drop count visible in the
#: snapshot).  A 2-sweep hcci ``ra`` request records about 300 events
#: per rank, kernel spans included.
RING_CAPACITY = 4096

_RECORD_KINDS = frozenset({"run", "heartbeat", "stall", "final", "postmortem"})
_REQUIRED_FIELDS = {
    "run": ("size", "backend"),
    "heartbeat": ("rank", "op_id", "phase"),
    "stall": ("rank", "op", "op_id", "seconds"),
    "final": ("rank", "status"),
    "postmortem": ("verdict",),
}


def _fmt_detail(detail: Any) -> str:
    if detail == "" or detail is None:
        return ""
    if isinstance(detail, tuple) and len(detail) == 2 and isinstance(detail[0], str):
        # (collective, group size) or (span name, span category)
        if isinstance(detail[1], str):
            return f"{detail[0]} ({detail[1]})"
        return f"{detail[0]} p={detail[1]}"
    if isinstance(detail, dict):
        return " ".join(f"{k}={v}" for k, v in detail.items())
    return str(detail)[:80]


def format_event(event: tuple) -> str:
    """Render one ring event as a single human-readable line."""

    seq, t, kind, op_id, phase, detail = event
    parts = [f"#{seq}", f"+{t:.3f}s", f"op#{op_id}", kind]
    if phase:
        parts.append(f"phase={phase}")
    txt = _fmt_detail(detail)
    if txt:
        parts.append(txt)
    return " ".join(parts)


class FlightRecorder:
    """Bounded per-rank ring of structured runtime events, the rank's
    open-span stack, and its metrics registry.

    On by default (``CommConfig.flight``); the only cost per event is
    one ``perf_counter`` read and one bounded-deque append.  The recorder
    is written from the rank's main thread (the overlap worker only
    observes receive histograms) and read (racily but safely) from the
    telemetry pusher thread; readers retry on concurrent mutation.
    """

    __slots__ = (
        "rank",
        "capacity",
        "wall_origin",
        "metrics",
        "op_id",
        "_origin",
        "_events",
        "_stack",
        "seq",
    )

    def __init__(self, rank: int, capacity: int = RING_CAPACITY) -> None:
        self.rank = int(rank)
        self.capacity = max(8, int(capacity))
        self.metrics = MetricsRegistry()
        #: the rank's collective sequence number, kept current by
        #: ``ProcessComm``; stamps span events for the causal merge.
        self.op_id = 0
        self._stack: list[tuple[str, str, str, float]] = []
        self.wall_origin = time.time()
        self._origin = time.perf_counter()
        self._events: deque[tuple] = deque(maxlen=self.capacity)
        self.seq = 0

    def record(
        self, kind: str, op_id: int, phase: str, detail: Any = ""
    ) -> float:
        """Append one event; returns its time offset."""
        self.seq += 1
        t = time.perf_counter() - self._origin
        self._events.append((self.seq, t, kind, op_id, phase, detail))
        return t

    def begin(self, name: str, category: str, phase: str = "") -> None:
        """Open a span (one ``span_begin`` event and a stack push)."""
        detail = (name, category)
        t = self.record("span_begin", self.op_id, phase, detail)
        self._stack.append((name, category, phase, t))

    def end(self) -> float:
        """Close the innermost open span; returns its duration, so a
        call site that also wants a histogram observation does not pay
        a third clock read."""
        name, category, phase, start = self._stack.pop()
        t = self.record("span_end", self.op_id, phase, (name, category))
        return t - start

    def now(self) -> float:
        return time.perf_counter() - self._origin

    def open_collective(self) -> tuple | None:
        """Return the begin event of an unmatched collective, if any.

        Safe to call from the pusher thread: a concurrent append can raise
        ``RuntimeError`` mid-iteration, in which case we retry once and give
        up (a missed sample is fine; the next heartbeat sees fresh state).
        """

        for _ in range(2):
            try:
                for ev in reversed(self._events):
                    if ev[2] == "collective_end":
                        return None
                    if ev[2] == "collective_begin":
                        return ev
                return None
            except RuntimeError:
                continue
        return None

    def open_span(self) -> dict[str, Any] | None:
        """The innermost still-open span, or ``None``.

        Used by the failure path: a rank that dies mid-span reports
        what it was doing and since when (wall clock), so hangs are
        attributable to a phase, not just a collective index.
        """
        if not self._stack:
            return None
        name, category, phase, start = self._stack[-1]
        return {
            "name": name,
            "category": category,
            "phase": phase,
            "start": start,
            "wall_start": self.wall_origin + start,
            "open_for": self.now() - start,
        }

    def snapshot(self) -> "FlightRing":
        return FlightRing(
            rank=self.rank,
            wall_origin=self.wall_origin,
            capacity=self.capacity,
            seq=self.seq,
            events=list(self._events),
            metrics=self.metrics.snapshot(),
            open_span=self.open_span(),
        )


@dataclass
class FlightRing:
    """Picklable snapshot of one rank's flight recorder: the ring, the
    metrics snapshot and the span still open at snapshot time.

    ``spans``, ``by_category``, ``phase_intervals`` and
    ``phase_seconds`` are views rebuilt from the events, so a ring
    shipped from a crashed rank is as readable as a finished one.
    """

    rank: int
    wall_origin: float
    capacity: int
    seq: int
    events: list
    metrics: dict = field(default_factory=dict)
    open_span: dict | None = None

    @property
    def dropped(self) -> int:
        return max(0, self.seq - len(self.events))

    @property
    def spans(self) -> list[Span]:
        """Finished spans in closing order: every
        ``span_begin``/``span_end`` pair and every collective's
        ``collective_begin``/``collective_end`` pair.  A pair whose
        begin fell off the ring is skipped; depth counts the spans open
        around it."""
        out: list[Span] = []
        stack: list[tuple[str, str, str, float]] = []
        coll: tuple[str, str, float, int] | None = None
        for _, t, kind, _, phase, detail in self.events:
            if kind == "span_begin":
                stack.append((detail[0], detail[1], phase, t))
            elif kind == "span_end":
                if stack:
                    name, cat, ph, start = stack.pop()
                    out.append(Span(name, cat, ph, start, t - start, len(stack)))
            elif kind == "collective_begin":
                coll = (detail[0], phase, t, len(stack))
            elif kind == "collective_end" and coll is not None:
                name, ph, start, depth = coll
                out.append(Span(name, "collective", ph, start, t - start, depth))
                coll = None
        return out

    def by_category(self, category: str) -> list[Span]:
        return [s for s in self.spans if s.category == category]

    def phase_intervals(self) -> dict[str, list[tuple[float, float]]]:
        """Merged ``(start, end)`` intervals of each phase's spans, in
        time order — one interval per executed phase instance (a
        helper that opens the phase its caller is already in nests a
        span of the same phase, which the union absorbs)."""
        raw: dict[str, list[tuple[float, float]]] = {}
        for s in self.by_category("phase"):
            raw.setdefault(s.name, []).append((s.start, s.end))
        return {phase: merge_intervals(ivs) for phase, ivs in raw.items()}

    def phase_seconds(self) -> dict[str, float]:
        """Measured seconds per phase, overlap-free."""
        return {
            phase: sum(end - start for start, end in intervals)
            for phase, intervals in self.phase_intervals().items()
        }

    def tail(self, n: int = 8) -> list[str]:
        return [format_event(ev) for ev in self.events[-n:]]

    def last_state(self) -> dict:
        """Summarize the rank's last known state from its ring."""

        state = {
            "rank": self.rank,
            "op_id": 0,
            "phase": "",
            "open_op": None,
            "last_kind": None,
            "t": 0.0,
        }
        if self.events:
            seq, t, kind, op_id, phase, detail = self.events[-1]
            state.update(op_id=op_id, phase=phase, last_kind=kind, t=t)
        for ev in reversed(self.events):
            if ev[2] == "collective_end":
                break
            if ev[2] == "collective_begin":
                detail = ev[5]
                state["open_op"] = detail[0] if isinstance(detail, tuple) else str(detail)
                state["op_id"] = ev[3]
                break
        return state


def merge_flight_rings(rings: Mapping[int, FlightRing]) -> list[dict]:
    """Merge per-rank rings into one causally-ordered global timeline.

    The collective sequence number is the causal backbone: every rank's
    ``collective_begin`` for op *k* precedes any transport post inside *k*,
    which precedes any ``collective_end`` for *k*, which precedes everything
    a rank does before entering *k+1*.  Wall time only breaks ties inside a
    causal stage, so clock skew between ranks cannot reorder the causally
    meaningful structure.
    """

    rows: list[dict] = []
    for rank in sorted(rings):
        ring = rings[rank]
        for seq, t, kind, op_id, phase, detail in ring.events:
            rows.append(
                {
                    "rank": ring.rank,
                    "seq": seq,
                    "t": t,
                    "wall": ring.wall_origin + t,
                    "kind": kind,
                    "op_id": op_id,
                    "phase": phase,
                    "detail": detail,
                }
            )
    rows.sort(
        key=lambda r: (r["op_id"], _STAGE.get(r["kind"], 3), r["wall"], r["rank"], r["seq"])
    )
    return rows


@dataclass
class Postmortem:
    """Merged causal timeline plus a diagnosis naming the diverging rank."""

    timeline: list[dict]
    last_states: dict[int, dict]
    verdict: str
    diverging: list[int]
    collective: str | None
    op_id: int | None
    completed: list[int] = field(default_factory=list)
    crashed: list[int] = field(default_factory=list)

    def lines(self) -> list[str]:
        """Short block suitable for embedding in a RankFailureError message."""

        out = [f"postmortem: {self.verdict}"]
        for rank in sorted(self.last_states):
            s = self.last_states[rank]
            if rank in self.completed:
                where = "completed"
            elif s["open_op"]:
                where = f"blocked in {s['open_op']} (op #{s['op_id']})"
            else:
                where = f"last event {s['last_kind'] or 'none'} (op #{s['op_id']})"
            phase = f" phase={s['phase']}" if s["phase"] else ""
            out.append(f"  rank {rank}: {where}{phase}")
        return out

    def render(self, max_events: int = 48) -> str:
        out = list(self.lines())
        shown = self.timeline[-max_events:]
        if len(self.timeline) > len(shown):
            out.append(
                f"global timeline (last {len(shown)} of {len(self.timeline)} events):"
            )
        else:
            out.append(f"global timeline ({len(shown)} events):")
        for row in shown:
            phase = f" phase={row['phase']}" if row["phase"] else ""
            txt = _fmt_detail(row["detail"])
            detail = f" {txt}" if txt else ""
            out.append(
                f"  op#{row['op_id']:<4d} r{row['rank']} {row['kind']}{phase}{detail}"
                f" (+{row['t']:.3f}s)"
            )
        return "\n".join(out)


def build_postmortem(
    rings: Mapping[int, FlightRing],
    completed: Iterable[int] = (),
    crashed: Iterable[int] = (),
) -> Postmortem:
    """Merge rank rings and diagnose which rank diverged at which collective.

    ``completed`` are ranks that returned normally; ``crashed`` are ranks
    whose *process* died (hard crash / injected crash), as opposed to ranks
    that merely reported an error.  The diagnosis prefers, in order: a
    crashed rank, ranks lagging behind the blocked frontier, mismatched
    collectives at the frontier, and ranks that exited while peers still
    wait.
    """

    completed = sorted(set(completed) & set(rings))
    crashed = sorted(set(crashed) & set(rings))
    timeline = merge_flight_rings(rings)
    states = {r: rings[r].last_state() for r in rings}

    verdict = "no flight-recorder events collected"
    diverging: list[int] = []
    collective: str | None = None
    op_id: int | None = None

    blocked = {
        r: s for r, s in states.items() if s["open_op"] is not None and r not in completed
    }
    if crashed:
        diverging = list(crashed)
        head = states[crashed[0]]
        collective = head["open_op"]
        op_id = head["op_id"]
        if collective:
            verdict = (
                f"rank {crashed[0]} crashed inside {collective} (op #{op_id})"
            )
        else:
            where = f" after {head['last_kind']}" if head["last_kind"] else ""
            verdict = f"rank {crashed[0]} crashed between collectives (op #{op_id}){where}"
        others = sorted(set(blocked) - set(crashed))
        if others:
            verdict += f"; ranks {others} still blocked"
    elif blocked:
        frontier = max(s["op_id"] for s in blocked.values())
        waiters = {r: s for r, s in blocked.items() if s["op_id"] == frontier}
        ops = sorted({s["open_op"] for s in waiters.values()})
        laggards = sorted(
            r
            for r, s in states.items()
            if s["op_id"] < frontier and r not in completed
        )
        op_id = frontier
        if laggards:
            diverging = laggards
            collective = ops[0]
            verdict = (
                f"rank(s) {laggards} never reached {collective} (op #{frontier}); "
                f"ranks {sorted(waiters)} blocked waiting"
            )
        elif len(ops) > 1:
            by_op: dict[str, list[int]] = {}
            for r, s in sorted(waiters.items()):
                by_op.setdefault(s["open_op"], []).append(r)
            minority_op = min(by_op, key=lambda o: (len(by_op[o]), o))
            diverging = by_op[minority_op]
            collective = minority_op
            verdict = (
                f"mismatched collectives at op #{frontier}: "
                + ", ".join(f"{o} on ranks {rs}" for o, rs in sorted(by_op.items()))
            )
        elif completed:
            diverging = list(completed)
            collective = ops[0]
            verdict = (
                f"rank(s) {completed} completed while ranks {sorted(waiters)} "
                f"still blocked in {collective} (op #{frontier})"
            )
        else:
            collective = ops[0]
            verdict = (
                f"all ranks blocked in {collective} (op #{frontier}); "
                "no diverging rank in recorded window"
            )
    elif states:
        verdict = "no blocked collectives recorded"

    return Postmortem(
        timeline=timeline,
        last_states=states,
        verdict=verdict,
        diverging=diverging,
        collective=collective,
        op_id=op_id,
        completed=completed,
        crashed=crashed,
    )


class TelemetryPusher(threading.Thread):
    """Daemon thread that periodically emits a rank's telemetry sample.

    ``sample`` is a zero-argument callable returning a picklable dict (the
    comm's ``telemetry_sample``); ``emit`` ships it over whatever control
    plane the launcher provided.  :meth:`stop` makes it emit one last
    sample before it exits, so the monitor sees where the rank ended
    even when the run was shorter than one interval.  Emit failures stop
    the pusher silently — telemetry must never take a rank down.
    """

    def __init__(
        self,
        sample: Callable[[], dict],
        emit: Callable[[dict], None],
        interval: float,
    ) -> None:
        super().__init__(name="telemetry-pusher", daemon=True)
        self._sample = sample
        self._emit = emit
        self._interval = max(0.05, float(interval))
        self._halt = threading.Event()

    def run(self) -> None:
        halted = False
        while True:
            try:
                self._emit(self._sample())
            except Exception:
                return
            if halted:
                return
            halted = self._halt.wait(self._interval)

    def stop(self, timeout: float = 2.0) -> None:
        self._halt.set()
        self.join(timeout=timeout)


class TelemetryMonitor:
    """Launcher-side aggregator behind ``repro top`` and the JSONL log.

    Thread-safe: samples arrive from the launcher's drain loop while the
    console renderer reads.  ``interval`` is the seconds between the
    heartbeats every rank pushes while this monitor is attached to a
    run; it must be positive.  Stalls are flagged when a heartbeat shows
    a collective open longer than ``stall_after`` seconds — deliberately
    far below ``CommConfig.collective_timeout`` so operators see the
    hang while it is still live.
    """

    def __init__(
        self,
        *,
        interval: float = 0.5,
        stall_after: float = 5.0,
        max_events: int = 20000,
    ) -> None:
        if not interval > 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        self.interval = float(interval)
        self.stall_after = float(stall_after)
        self._lock = threading.Lock()
        self.latest: dict[int, dict] = {}
        self.done: dict[int, str] = {}
        self.events: deque[dict] = deque(maxlen=max_events)
        self.size: int | None = None
        self.backend: str | None = None
        self.started = time.time()
        self._flagged: dict[int, int] = {}

    def _log(self, kind: str, **fields: Any) -> None:
        rec = {"v": TELEMETRY_SCHEMA_VERSION, "ts": time.time(), "kind": kind}
        rec.update(fields)
        self.events.append(rec)

    def on_start(self, size: int, backend: str) -> None:
        with self._lock:
            self.size = size
            self.backend = backend
            self.started = time.time()
            self._log("run", size=size, backend=backend)

    def on_sample(self, rank: int, sample: dict) -> None:
        with self._lock:
            self.latest[rank] = sample
            self._log(
                "heartbeat",
                rank=rank,
                op_id=sample.get("op_id", 0),
                phase=sample.get("phase", ""),
                progress=sample.get("progress", {}),
                blocked=sample.get("blocked"),
                flight_seq=sample.get("flight_seq"),
                metrics=sample.get("metrics"),
            )
            blocked = sample.get("blocked")
            if blocked and blocked.get("seconds", 0.0) >= self.stall_after:
                if self._flagged.get(rank) != blocked.get("op_id"):
                    self._flagged[rank] = blocked.get("op_id")
                    self._log(
                        "stall",
                        rank=rank,
                        op=blocked.get("op", "?"),
                        op_id=blocked.get("op_id", 0),
                        seconds=round(float(blocked.get("seconds", 0.0)), 3),
                    )
            else:
                self._flagged.pop(rank, None)

    def on_done(self, rank: int, status: str) -> None:
        with self._lock:
            self.done[rank] = status
            self._flagged.pop(rank, None)
            self._log("final", rank=rank, status=status)

    def on_postmortem(self, verdict: str, diverging: Iterable[int] = ()) -> None:
        with self._lock:
            self._log("postmortem", verdict=verdict, diverging=sorted(diverging))

    def stalls(self) -> list[dict]:
        with self._lock:
            return [e for e in self.events if e["kind"] == "stall"]

    def _progress_text(self, sample: dict) -> str:
        prog = sample.get("progress") or {}
        bits = []
        it, total = prog.get("iteration"), prog.get("total")
        if it is not None:
            bits.append(f"sweep {it}/{total}" if total else f"sweep {it}")
        if prog.get("mode") is not None:
            bits.append(f"mode {prog['mode']}")
        if prog.get("residual") is not None:
            bits.append(f"res={prog['residual']:.3e}")
        if prog.get("ranks") is not None:
            bits.append(f"ranks={prog['ranks']}")
        for k, v in prog.items():
            if k not in ("iteration", "total", "mode", "residual", "ranks"):
                bits.append(f"{k}={v}")
        return " ".join(bits) or "-"

    def render(self) -> str:
        """ASCII console view for ``repro top``."""

        with self._lock:
            now = time.time()
            size = self.size if self.size is not None else len(self.latest)
            head = (
                f"repro top — {size} ranks, backend={self.backend or '?'}, "
                f"elapsed {now - self.started:.1f}s"
            )
            rows = [head, f"{'rank':<5} {'state':<12} {'phase':<12} {'op#':>6}  "
                          f"{'progress':<32} last beat"]
            ranks = sorted(set(self.latest) | set(self.done) | set(range(size or 0)))
            for rank in ranks:
                sample = self.latest.get(rank)
                if rank in self.done:
                    state = f"done({self.done[rank]})"
                elif sample is None:
                    state = "starting"
                else:
                    blocked = sample.get("blocked")
                    if blocked and blocked.get("seconds", 0.0) >= self.stall_after:
                        state = "STALLED"
                    elif blocked:
                        state = "blocked"
                    else:
                        state = "running"
                phase = (sample or {}).get("phase") or "-"
                op = (sample or {}).get("op_id", 0)
                prog = self._progress_text(sample or {})
                beat = f"{now - sample['ts']:.1f}s ago" if sample and "ts" in sample else "-"
                extra = ""
                sample_blocked = (sample or {}).get("blocked")
                if sample_blocked and rank not in self.done:
                    extra = (
                        f"  ({sample_blocked.get('seconds', 0.0):.1f}s in "
                        f"{sample_blocked.get('op', '?')})"
                    )
                rows.append(
                    f"{rank:<5} {state:<12} {phase:<12} {op:>6}  {prog:<32} {beat}{extra}"
                )
            stalls = [e for e in self.events if e["kind"] == "stall"]
            if stalls:
                rows.append("recent stalls:")
                for e in stalls[-4:]:
                    rows.append(
                        f"  rank {e['rank']} stalled {e['seconds']:.1f}s in "
                        f"{e['op']} (op #{e['op_id']})"
                    )
            return "\n".join(rows)

    def jsonl(self) -> list[str]:
        with self._lock:
            return [json.dumps(e, sort_keys=True, default=str) for e in self.events]

    def write_jsonl(self, path: str) -> None:
        lines = self.jsonl()
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")


def validate_telemetry_jsonl(lines: Iterable[str]) -> dict[str, int]:
    """Validate a telemetry JSONL export; return a per-kind record count.

    Raises ``ValueError`` naming the first offending line on malformed JSON,
    wrong schema version, unknown record kind, or missing required fields.
    Used by the CI telemetry smoke job and the test suite.
    """

    counts: dict[str, int] = {}
    n = 0
    for n, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {n}: invalid JSON: {exc}") from exc
        if not isinstance(rec, dict):
            raise ValueError(f"line {n}: expected object, got {type(rec).__name__}")
        if rec.get("v") != TELEMETRY_SCHEMA_VERSION:
            raise ValueError(
                f"line {n}: schema version {rec.get('v')!r} != {TELEMETRY_SCHEMA_VERSION}"
            )
        kind = rec.get("kind")
        if kind not in _RECORD_KINDS:
            raise ValueError(f"line {n}: unknown record kind {kind!r}")
        if "ts" not in rec:
            raise ValueError(f"line {n}: missing ts")
        for fld in _REQUIRED_FIELDS[kind]:
            if fld not in rec:
                raise ValueError(f"line {n}: {kind} record missing {fld!r}")
        counts[kind] = counts.get(kind, 0) + 1
    if n == 0:
        raise ValueError("empty telemetry log")
    return counts
