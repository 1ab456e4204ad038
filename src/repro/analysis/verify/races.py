"""``races`` — tier-2 happens-before race sanitizer (SPMD221–223).

PR 7 and PR 8 quietly made the rank runtime multi-threaded: the
overlap machinery runs prefetches on a worker thread, and shrink
recovery re-hosts orphaned logical ranks as threads inside the
buddy's process.  None of those surfaces had race checking.  This module adds a vector-clock happens-before
detector in the TSan tradition, switched on with
``CommConfig(race_detect=True)``:

* every participating thread carries a **vector clock** (thread →
  epoch); an access *A* by thread ``t`` at epoch ``e`` happens-before
  the current access iff the current thread's clock has ``clock[t] >=
  e``.  Two accesses to the same location with no such order — and at
  least one a write — are a race, *regardless of how the scheduler
  interleaved them this run*.  Detection is therefore deterministic:
  a seeded race fires on every run, not just unlucky ones.
* happens-before edges come from the places the runtime already
  synchronizes: message channels (``_post`` → ``_note``/``_recv_body``
  carry the sender's clock to the receiver — collective boundaries
  inherit order transitively from their constituent messages), shm
  free credits (consumer → producer, ordering segment reuse), lock
  acquire/release, and fork/join of the overlap worker.
* instrumented locations: shm-pool segment buffers (write on
  ``_send_payload``, read on ``_decode``), transport-endpoint
  occupancy (rule SPMD223 certifies the documented one-in-flight
  overlap contract: at most one thread inside a transport at a time),
  and user annotations via ``ProcessComm.annotate_read`` /
  ``annotate_write`` for hosted-rank shared state the detector cannot
  see into.

Races raise :class:`RaceError` with **both** conflicting stacks — the
current one and the recorded site of the prior access.  Clean runs are
bit- and trace-identical to detection-off runs (the instrumentation
never touches payload bytes or message order) with bounded overhead
(see ``benchmarks/bench_overhead.py``).

The detector is process-global (hosted ranks in one process share it;
separate processes need no sharing — a race requires shared memory in
one address space).  Cross-process channel sends leave unconsumed
clock snapshots behind; the per-channel deques are bounded so they
cannot grow without limit, and a missing edge can only ever *miss* a
race across processes (where there is nothing to miss), never invent
one.
"""

from __future__ import annotations

import sys
import threading
from collections import deque
from typing import Hashable

from repro.analysis.verify.runtime import VerifyError

__all__ = [
    "RaceDetector",
    "RaceError",
    "VectorClock",
    "get_detector",
    "reset_detector",
]

#: Per-channel bound on unconsumed clock snapshots (cross-process
#: sends never consume theirs).
_CHANNEL_DEPTH = 256

#: Stack frames kept per recorded access site.
_SITE_FRAMES = 3


class RaceError(VerifyError):
    """A happens-before violation (SPMD221–223)."""

    rule_id = "SPMD221"

    def __init__(self, message: str, *, rule_id: str | None = None) -> None:
        if rule_id is not None:
            self.rule_id = rule_id
        super().__init__(message)


class VectorClock:
    """A thread → epoch map with the usual lattice operations."""

    __slots__ = ("clocks",)

    def __init__(self, clocks: dict[int, int] | None = None) -> None:
        self.clocks: dict[int, int] = dict(clocks or ())

    def get(self, tid: int) -> int:
        return self.clocks.get(tid, 0)

    def tick(self, tid: int) -> int:
        nxt = self.clocks.get(tid, 0) + 1
        self.clocks[tid] = nxt
        return nxt

    def merge(self, other: "VectorClock") -> None:
        for tid, epoch in other.clocks.items():
            if epoch > self.clocks.get(tid, 0):
                self.clocks[tid] = epoch

    def copy(self) -> "VectorClock":
        return VectorClock(self.clocks)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"VectorClock({self.clocks})"


def _site() -> str:
    """A short stack snippet of the calling access, skipping the
    detector's own frames.

    This runs on *every* instrumented access, so it walks raw frames
    with :func:`sys._getframe` instead of
    ``traceback.extract_stack()`` — the latter materializes the whole
    stack and costs enough per call to break the <10% overhead gate
    on message-dense sweeps."""
    frame = sys._getframe(1)
    parts: list[str] = []
    while frame is not None and len(parts) < _SITE_FRAMES:
        code = frame.f_code
        if "verify/races" not in code.co_filename.replace("\\", "/"):
            parts.append(
                f"{code.co_filename.rsplit('/', 1)[-1]}:"
                f"{frame.f_lineno} in {code.co_name}"
            )
        frame = frame.f_back
    return " | ".join(reversed(parts))


class _TracedBody:
    """A message body annotated with the sender's clock snapshot.

    Wrapped at the arrival funnel (``Transport._note``) so the
    happens-before edge is merged into the clock of the thread that
    actually *consumes* the message in ``_recv_body`` — not the thread
    that happened to pump the wire (under overlap, the worker thread
    pumps messages the main thread later consumes; attributing the
    edge to the pump thread would invent order that does not exist).
    """

    __slots__ = ("clock", "body")

    def __init__(self, clock: VectorClock, body: object) -> None:
        self.clock = clock
        self.body = body


class RaceDetector:
    """Process-global vector-clock happens-before detector.

    All public methods are safe to call from any thread; a single
    internal lock orders detector state (the runtime's message rates
    are far below the point where this lock would matter, and the
    <10 % overhead gate in CI keeps it honest).
    """

    def __init__(self) -> None:
        self._mu = threading.Lock()
        self._clocks: dict[int, VectorClock] = {}
        self._names: dict[int, str] = {}
        # (src, dst) channel key -> FIFO of sender clock snapshots.
        self._channels: dict[Hashable, deque[VectorClock]] = {}
        # lock identity -> clock released with it.
        self._locks: dict[Hashable, VectorClock] = {}
        # location -> last write (tid, epoch, site).
        self._last_write: dict[Hashable, tuple[int, int, str]] = {}
        # location -> reads since the last write: tid -> (epoch, site).
        self._reads: dict[Hashable, dict[int, tuple[int, str]]] = {}
        # transport id -> (occupying tid, depth, site) for SPMD223.
        self._occupied: dict[int, tuple[int, int, str]] = {}
        self.races: list[RaceError] = []

    # -- thread registry ----------------------------------------------------

    def _me(self) -> int:
        tid = threading.get_ident()
        if tid not in self._clocks:
            self._clocks[tid] = VectorClock()
            self._clocks[tid].tick(tid)
            self._names.setdefault(
                tid, threading.current_thread().name
            )
        return tid

    def register_thread(self, name: str) -> None:
        """Give the calling thread a stable display name."""
        with self._mu:
            tid = self._me()
            self._names[tid] = name

    def _label(self, tid: int) -> str:
        return self._names.get(tid, f"thread-{tid}")

    # -- happens-before edges -----------------------------------------------

    def channel_send(self, key: Hashable) -> VectorClock:
        """Record a message send on ``key``; returns the snapshot that
        travels with the message (also queued FIFO for consumers that
        cannot carry it in-band)."""
        with self._mu:
            tid = self._me()
            clk = self._clocks[tid]
            clk.tick(tid)
            snap = clk.copy()
            self._channels.setdefault(
                key, deque(maxlen=_CHANNEL_DEPTH)
            ).append(snap)
            return snap

    def channel_recv(self, key: Hashable) -> None:
        """Merge the oldest unconsumed send on ``key`` (if any) into
        the calling thread's clock."""
        with self._mu:
            tid = self._me()
            q = self._channels.get(key)
            if q:
                self._clocks[tid].merge(q.popleft())

    def channel_pop(self, key: Hashable) -> VectorClock | None:
        """Take the oldest unconsumed send snapshot on ``key``
        *without* merging it — the arrival funnel attaches it to the
        message body (:class:`_TracedBody`) so the edge lands in the
        clock of the thread that eventually consumes the message, not
        the thread that happened to pump the wire."""
        with self._mu:
            q = self._channels.get(key)
            if q:
                return q.popleft()
            return None

    def merge_clock(self, clock: VectorClock) -> None:
        """Merge an in-band snapshot (a :class:`_TracedBody` clock)
        into the calling thread's clock."""
        with self._mu:
            tid = self._me()
            self._clocks[tid].merge(clock)

    def lock_release(self, key: Hashable) -> None:
        with self._mu:
            tid = self._me()
            clk = self._clocks[tid]
            clk.tick(tid)
            self._locks[key] = clk.copy()

    def lock_acquire(self, key: Hashable) -> None:
        with self._mu:
            tid = self._me()
            held = self._locks.get(key)
            if held is not None:
                self._clocks[tid].merge(held)

    def fork_point(self) -> VectorClock:
        """Snapshot the calling thread's clock for a task about to run
        on another thread (the overlap worker joins it on entry)."""
        with self._mu:
            tid = self._me()
            clk = self._clocks[tid]
            clk.tick(tid)
            return clk.copy()

    def join_point(self, snapshot: VectorClock) -> None:
        """Merge a fork/completion snapshot into the calling thread."""
        self.merge_clock(snapshot)

    # -- access checking ----------------------------------------------------

    def on_access(self, key: Hashable, kind: str) -> None:
        """Record a read (``kind="r"``) or write (``kind="w"``) of the
        location ``key`` and raise :class:`RaceError` when it is
        unordered against a prior conflicting access."""
        with self._mu:
            tid = self._me()
            clk = self._clocks[tid]
            site = _site()
            lw = self._last_write.get(key)
            if kind == "w":
                if (
                    lw is not None
                    and lw[0] != tid
                    and clk.get(lw[0]) < lw[1]
                ):
                    self._raise(
                        "SPMD221",
                        key,
                        f"write-write race on {key!r}: "
                        f"{self._label(tid)} writes at [{site}] with "
                        f"no happens-before order against the write "
                        f"by {self._label(lw[0])} at [{lw[2]}]",
                    )
                for rtid, (repoch, rsite) in self._reads.get(
                    key, {}
                ).items():
                    if rtid != tid and clk.get(rtid) < repoch:
                        self._raise(
                            "SPMD222",
                            key,
                            f"read-write race on {key!r}: "
                            f"{self._label(tid)} writes at [{site}] "
                            f"with no happens-before order against "
                            f"the read by {self._label(rtid)} at "
                            f"[{rsite}]",
                        )
                epoch = clk.tick(tid)
                self._last_write[key] = (tid, epoch, site)
                self._reads.pop(key, None)
            else:
                if (
                    lw is not None
                    and lw[0] != tid
                    and clk.get(lw[0]) < lw[1]
                ):
                    self._raise(
                        "SPMD222",
                        key,
                        f"read-write race on {key!r}: "
                        f"{self._label(tid)} reads at [{site}] with "
                        f"no happens-before order against the write "
                        f"by {self._label(lw[0])} at [{lw[2]}]",
                    )
                epoch = clk.tick(tid)
                self._reads.setdefault(key, {})[tid] = (epoch, site)

    def _raise(self, rule_id: str, key: Hashable, message: str) -> None:
        err = RaceError(f"{rule_id}: {message}", rule_id=rule_id)
        self.races.append(err)
        raise err

    # -- transport occupancy (SPMD223) --------------------------------------

    def enter_transport(self, transport_id: int) -> None:
        """Certify the one-in-flight contract: at most one thread may
        be inside a transport endpoint at a time (reentrancy by the
        same thread is fine — collectives nest sends)."""
        with self._mu:
            tid = self._me()
            cur = self._occupied.get(transport_id)
            if cur is not None and cur[0] != tid:
                self._raise(
                    "SPMD223",
                    transport_id,
                    f"two threads concurrently inside one transport "
                    f"endpoint: {self._label(tid)} enters at "
                    f"[{_site()}] while {self._label(cur[0])} is "
                    f"still inside since [{cur[2]}] — the overlap "
                    "contract allows exactly one user per transport",
                )
            if cur is not None:
                self._occupied[transport_id] = (
                    cur[0],
                    cur[1] + 1,
                    cur[2],
                )
            else:
                self._occupied[transport_id] = (tid, 1, _site())

    def exit_transport(self, transport_id: int) -> None:
        with self._mu:
            cur = self._occupied.get(transport_id)
            if cur is None:
                return
            if cur[1] <= 1:
                self._occupied.pop(transport_id, None)
            else:
                self._occupied[transport_id] = (
                    cur[0],
                    cur[1] - 1,
                    cur[2],
                )


_GLOBAL: RaceDetector | None = None
_GLOBAL_MU = threading.Lock()


def get_detector() -> RaceDetector:
    """The process-global detector (hosted ranks in one process share
    it — races only exist inside one address space)."""
    global _GLOBAL
    with _GLOBAL_MU:
        if _GLOBAL is None:
            _GLOBAL = RaceDetector()
        return _GLOBAL


def reset_detector() -> RaceDetector:
    """Install a fresh global detector (test isolation)."""
    global _GLOBAL
    with _GLOBAL_MU:
        _GLOBAL = RaceDetector()
        return _GLOBAL
