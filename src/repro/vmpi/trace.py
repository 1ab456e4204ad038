"""Event tracing and timeline rendering for the simulated machine.

A :class:`TracingLedger` records every charge as an ordered event; the
renderer turns the event list into an ASCII timeline (one lane per
phase) so a run's structure — the Gram/EVD alternation of STHOSVD, the
tree-shaped TTM bursts of HOSI-DT — can be inspected without plotting.

This module also defines the *executed*-communication trace used by the
real process-parallel layer: every collective a
:class:`~repro.vmpi.mp_comm.ProcessComm` runs appends one
:class:`CollectiveRecord` (algorithm chosen, messages and words
actually sent/received by this rank) to a :class:`CommTrace`.  The
schedule-vs-cost tests certify these executed counts against the
closed-form ``*_cost`` formulas of :mod:`repro.vmpi.collectives`, so
the simulator's charges and the executed schedules stay in agreement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.vmpi.cost import CostKind, CostLedger
from repro.vmpi.machine import MachineModel

__all__ = [
    "PHASES",
    "CollectiveRecord",
    "CommTrace",
    "TraceEvent",
    "TracingLedger",
    "render_lanes",
    "render_timeline",
]

#: Canonical phase vocabulary, shared by every layer that attributes
#: work to an algorithm phase: the executed mp layer
#: (:attr:`CollectiveRecord.phase` / :meth:`CommTrace.for_phase` and
#: the flight recorder's phase spans) and the simulator's
#: :class:`~repro.vmpi.cost.CostLedger` charges.  The first row is the
#: executed vocabulary, the second the simulator's compute phases, the
#: third its communication phases.  Drivers must tag work with one of
#: these (or the empty string, meaning "untagged"); the static lint
#: rule SPMD106 enforces the vocabulary over every string literal that
#: flows into a ``phase`` keyword/attribute or a ledger charge.
PHASES = frozenset({
    "ttm", "llsv", "gram", "core",
    "evd", "subspace", "qrcp", "core_analysis",
    "ttm_comm", "gram_comm", "subspace_comm",
    "redistribute_comm", "core_comm",
    # elastic-recovery phases (repro.distributed.recovery): the buddy
    # replication of sweep state and a survivor's report — one
    # namespace shared by flight recorder spans, trace records, and the
    # lint rules (SPMD106/SPMD123).
    "buddy_replicate", "recovery",
})


@dataclass(frozen=True)
class CollectiveRecord:
    """Executed-communication profile of one collective on one rank.

    ``words`` count array *elements* moved (the unit the alpha-beta
    cost formulas use); ``bytes`` count raw payload bytes.  Envelope
    metadata (tags, shapes) is not counted — the cost formulas only
    charge payload words, and tests compare "same beta words
    ±rounding".

    ``phase`` carries the algorithm phase the caller attributed the
    collective to (``"ttm"``, ``"llsv"``, ``"core"``, ...), using the
    same vocabulary as the simulator's :class:`~repro.vmpi.cost`
    ledger phases — this is how the executed mp layer's per-phase
    collective counts are certified against the closed-form schedules
    (e.g. the memoized TTM count of Table 1).  Empty when the caller
    set no phase.
    """

    op: str
    algorithm: str
    group_size: int
    sent_messages: int
    sent_words: int
    sent_bytes: int
    recv_messages: int
    recv_words: int
    recv_bytes: int
    shm_messages: int
    phase: str = ""


@dataclass
class CommTrace:
    """Ordered per-rank list of executed collective records."""

    records: list[CollectiveRecord] = field(default_factory=list)

    def add(self, record: CollectiveRecord) -> None:
        self.records.append(record)

    def for_op(self, op: str) -> list[CollectiveRecord]:
        """All records of one collective kind, in execution order."""
        return [r for r in self.records if r.op == op]

    def for_phase(self, *phases: str) -> list[CollectiveRecord]:
        """All records attributed to any of the given phases."""
        return [r for r in self.records if r.phase in phases]

    def count(self, op: str, *phases: str) -> int:
        """Number of ``op`` collectives, optionally restricted to phases."""
        return sum(
            1
            for r in self.records
            if r.op == op and (not phases or r.phase in phases)
        )

    def tail(self, n: int = 6) -> list[str]:
        """Compact one-line summaries of the last ``n`` records.

        The failure path of ``run_spmd`` embeds this in its error so a
        crashed rank's last collectives — the context a post-mortem
        needs — survive the process boundary as plain strings.
        """
        out = []
        total = len(self.records)
        for i, r in enumerate(self.records[-n:], start=max(total - n, 0)):
            phase = f" phase={r.phase}" if r.phase else ""
            out.append(
                f"#{i + 1}/{total} {r.op}[{r.algorithm}] p={r.group_size}"
                f"{phase} sent={r.sent_messages}msg/{r.sent_words}w "
                f"recv={r.recv_messages}msg/{r.recv_words}w"
            )
        return out

    def totals(self) -> dict[str, int]:
        """Aggregate message/word/byte counters over all records."""
        keys = (
            "sent_messages",
            "sent_words",
            "sent_bytes",
            "recv_messages",
            "recv_words",
            "recv_bytes",
            "shm_messages",
        )
        return {
            k: sum(getattr(r, k) for r in self.records) for k in keys
        }


@dataclass(frozen=True)
class TraceEvent:
    """One charged step."""

    phase: str
    kind: CostKind
    start: float
    seconds: float

    @property
    def end(self) -> float:
        return self.start + self.seconds


class TracingLedger(CostLedger):
    """Cost ledger that additionally records an ordered event trace."""

    def __init__(self, machine: MachineModel, p: int) -> None:
        super().__init__(machine, p)
        self.events: list[TraceEvent] = []
        self._clock = 0.0

    def _record(self, phase: str, kind: CostKind, dt: float) -> None:
        if dt > 0:
            self.events.append(
                TraceEvent(phase, kind, self._clock, dt)
            )
            self._clock += dt

    def compute(self, phase: str, flops: float, mem_words: float = 0.0):
        dt = super().compute(phase, flops, mem_words)
        self._record(phase, CostKind.COMPUTE, dt)
        return dt

    def sequential(self, phase: str, flops: float):
        dt = super().sequential(phase, flops)
        self._record(phase, CostKind.SEQUENTIAL, dt)
        return dt

    def comm(self, phase: str, words: float, messages: float = 1.0):
        dt = super().comm(phase, words, messages)
        self._record(phase, CostKind.COMM, dt)
        return dt


def render_lanes(
    lanes: list[tuple[str, list[tuple[float, float]]]],
    *,
    width: int = 72,
    total: float | None = None,
    lane_header: str = "phase",
    unit: str = "simulated s",
) -> str:
    """ASCII timeline: one lane per label, ``#`` marks busy intervals.

    Each lane is ``(label, [(start, end), ...])`` on a shared clock.
    Intervals shorter than one column still print a single mark so
    brief steps (latency-bound collectives) remain visible.  Shared by
    :func:`render_timeline` (one lane per simulated phase) and the
    flight recorder's measured timeline (one lane per rank).
    """
    if not lanes:
        return "(no events)"
    intervals = [iv for _, ivs in lanes for iv in ivs]
    if not intervals:
        return "(no events)"
    if total is None:
        total = max(end for _, end in intervals)
    if total <= 0:
        return "(zero-duration trace)"
    label_w = max(len(lbl) for lbl, _ in lanes) + 1
    lines = [
        f"{lane_header.ljust(label_w)}|{'-' * width}| total "
        f"{total:.4g} {unit}"
    ]
    for label, ivs in lanes:
        lane = [" "] * width
        busy = 0.0
        for start, end in ivs:
            # Clamp to the axis: partial profiles (a crashed rank's
            # truncated spans joined against healthy peers) can carry
            # intervals starting before the shared origin or ending
            # past the supplied total — render the visible part
            # instead of wrapping around via negative indices.
            a = max(int(start / total * width), 0)
            b = max(int(end / total * width), a + 1)
            for i in range(a, min(b, width)):
                lane[i] = "#"
            busy += max(end - start, 0.0)
        lines.append(
            f"{label.ljust(label_w)}|{''.join(lane)}| {busy:.4g}s"
        )
    return "\n".join(lines)


def render_timeline(
    events: list[TraceEvent], *, width: int = 72
) -> str:
    """ASCII timeline of a simulated trace: one lane per phase."""
    if not events:
        return "(no events)"
    phases: list[str] = []
    for e in events:
        if e.phase not in phases:
            phases.append(e.phase)
    lanes = [
        (p, [(e.start, e.end) for e in events if e.phase == p])
        for p in phases
    ]
    return render_lanes(lanes, width=width)
