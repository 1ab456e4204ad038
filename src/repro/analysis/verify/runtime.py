"""Tier 2 — runtime verification logic for the mini-MPI stack.

Pure logic only: signature matching, wait-for-graph cycle detection,
and the shm lifecycle state machine.  The wiring — stamping each
collective, shipping signatures over the control channel, registering
waits — lives in :mod:`repro.vmpi.mp_comm` behind
``CommConfig(verify=True)`` and imports this module lazily, so nothing
here may import from :mod:`repro.vmpi`.

Errors are plain ``RuntimeError`` subclasses carrying their rule ID
(see :mod:`repro.analysis.verify.rules`) and a preformatted message, so
they survive the pickling round trip through the worker result queue
with full fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, MutableSequence

__all__ = [
    "CollectiveMismatchError",
    "CollectiveSignature",
    "DeadlockError",
    "ShmLifecycleError",
    "ShmSanitizer",
    "VerifyError",
    "WaitMonitor",
    "match_signatures",
    "summarize_mismatch",
]


class VerifyError(RuntimeError):
    """Base class for dynamic-verifier findings.

    ``rule_id`` names the violated rule from the shared registry.
    """

    rule_id: str = "SPMD200"

    def __init__(self, message: str, *, rule_id: str | None = None) -> None:
        if rule_id is not None:
            self.rule_id = rule_id
        super().__init__(f"[{self.rule_id}] {message}")


class CollectiveMismatchError(VerifyError):
    """Group members disagreed on a matched collective (SPMD201/202)."""

    rule_id = "SPMD201"


class DeadlockError(VerifyError):
    """A stable cycle in the in-flight wait-for graph (SPMD203)."""

    rule_id = "SPMD203"


class ShmLifecycleError(VerifyError):
    """A pooled shm segment broke its lifecycle contract (SPMD21x)."""

    rule_id = "SPMD211"


@dataclass(frozen=True)
class CollectiveSignature:
    """What one rank believes about one matched collective.

    Shipped between ranks over the counter-neutral control channel, so
    it must stay cheaply picklable (plain strings and ints only).
    """

    kind: str
    seq: int
    op: str = ""
    root: int = -1
    axis: int = -1
    split_axis: int = -1
    dtype: str = ""
    shape: tuple[int, ...] = ()
    call_site: str = ""

    def describe(self) -> str:
        parts = [f"{self.kind}#{self.seq}"]
        if self.op:
            parts.append(f"op={self.op}")
        if self.root >= 0:
            parts.append(f"root={self.root}")
        if self.axis >= 0:
            parts.append(f"axis={self.axis}")
        if self.split_axis >= 0:
            parts.append(f"split_axis={self.split_axis}")
        if self.dtype:
            parts.append(f"dtype={self.dtype}")
        if self.shape:
            parts.append(f"shape={self.shape}")
        if self.call_site:
            parts.append(f"at {self.call_site}")
        return " ".join(parts)


def _disagree(
    sigs: dict[int, CollectiveSignature], attr: str
) -> tuple[int, int] | None:
    """First pair of ranks disagreeing on ``attr`` (lowest rank wins)."""
    ranks = sorted(sigs)
    ref = getattr(sigs[ranks[0]], attr)
    for r in ranks[1:]:
        if getattr(sigs[r], attr) != ref:
            return ranks[0], r
    return None


def _fmt_pair(
    sigs: dict[int, CollectiveSignature], pair: tuple[int, int], what: str
) -> str:
    a, b = pair
    return (
        f"{what} disagrees across group members: "
        f"rank {a} called {sigs[a].describe()} but "
        f"rank {b} called {sigs[b].describe()}"
    )


def match_signatures(
    sigs: dict[int, CollectiveSignature],
) -> tuple[str, str] | None:
    """Cross-check one matching round of collective signatures.

    ``sigs`` maps *global* rank to the signature it submitted for the
    same per-communicator sequence number.  Returns ``None`` when the
    round is consistent, else ``(rule_id, message)`` where the message
    names the disagreeing ranks, both call sites, and both signatures.

    Per-kind shape contract:

    - ``allreduce``/``reduce_scatter``: identical op, dtype, and shape
      on every rank (elementwise reduction).
    - ``allgather``/``alltoall``: identical axes (the concatenation
      axis, and the split axis of an all-to-all) and dtype; shapes must
      agree on every dimension except the concatenation axis.
    - ``bcast``/``gather``: identical root (payload shapes are
      legitimately rank-dependent).
    - ``barrier``: kind agreement only.
    """
    if len(sigs) < 2:
        return None
    pair = _disagree(sigs, "kind")
    if pair is not None:
        return "SPMD202", _fmt_pair(sigs, pair, "collective kind") + (
            " — the per-communicator sequence diverged (a call was "
            "skipped or reordered on one of these ranks)"
        )
    kind = next(iter(sigs.values())).kind
    if kind in ("allreduce", "reduce_scatter"):
        for attr, label in (
            ("op", "reduction op"),
            ("dtype", "dtype"),
            ("shape", "shape"),
        ):
            pair = _disagree(sigs, attr)
            if pair is not None:
                return "SPMD201", _fmt_pair(sigs, pair, label)
    elif kind in ("allgather", "alltoall"):
        for attr, label in (
            ("axis", "concat axis"),
            ("split_axis", "split axis"),
            ("dtype", "dtype"),
        ):
            pair = _disagree(sigs, attr)
            if pair is not None:
                return "SPMD201", _fmt_pair(sigs, pair, label)
        ranks = sorted(sigs)
        axis = sigs[ranks[0]].axis
        ref = sigs[ranks[0]].shape
        for r in ranks[1:]:
            shape = sigs[r].shape
            trimmed_ref = tuple(
                d for i, d in enumerate(ref) if i != axis
            )
            trimmed = tuple(d for i, d in enumerate(shape) if i != axis)
            if len(shape) != len(ref) or trimmed != trimmed_ref:
                return "SPMD201", _fmt_pair(
                    sigs,
                    (ranks[0], r),
                    f"off-axis shape ({kind} blocks must agree on "
                    "every dimension except the concat axis)",
                )
    elif kind in ("bcast", "gather"):
        pair = _disagree(sigs, "root")
        if pair is not None:
            return "SPMD201", _fmt_pair(sigs, pair, "root")
    # barrier: kind agreement was already checked.
    return None


class ShmSanitizer:
    """Lifecycle state machine for pooled shared-memory segments.

    States per segment name: ``pooled`` (safe to reuse) and
    ``inflight`` (a peer may still be reading it).  The transport calls
    the hooks at the exact points it mutates its pool; violations raise
    immediately at the offending call site.
    """

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self._state: dict[str, str] = {}

    def on_obtain(self, name: str) -> None:
        """A segment is about to be reused for a fresh payload."""
        if self._state.get(name) == "inflight":
            raise ShmLifecycleError(
                f"rank {self.rank}: shm segment {name!r} reused while "
                "still in flight — a peer may be reading it "
                "(use-after-release)",
                rule_id="SPMD211",
            )

    def on_send(self, name: str) -> None:
        """The segment's name was shipped to a peer."""
        self._state[name] = "inflight"

    def on_release(self, name: str) -> None:
        """A free-credit for the segment came back from the receiver."""
        if self._state.get(name) != "inflight":
            raise ShmLifecycleError(
                f"rank {self.rank}: shm segment {name!r} released twice "
                "(duplicated credit message)",
                rule_id="SPMD212",
            )
        self._state[name] = "pooled"

    def on_unlink(self, name: str) -> None:
        """The segment was destroyed (purge/teardown)."""
        self._state.pop(name, None)

    def leaked(self) -> list[str]:
        """Segments still in flight — a leak if the rank is exiting."""
        return sorted(
            n for n, s in self._state.items() if s == "inflight"
        )

    def check_exit(self) -> None:
        """Raise SPMD213 if any segment is still in flight at exit."""
        names = self.leaked()
        if names:
            raise ShmLifecycleError(
                f"rank {self.rank}: {len(names)} shm segment(s) still "
                f"in flight at exit (leak): {', '.join(names)} — a "
                "message was sent but never received",
                rule_id="SPMD213",
            )

    def clear(self) -> None:
        self._state.clear()


#: Board slots per rank: (waiting_on, op_id, stamp).
_SLOTS = 3
_IDLE = -1


class WaitMonitor:
    """Deadlock detection over a shared wait-for board.

    Every rank owns three slots of a flat shared array (any mutable
    integer sequence — ``multiprocessing.Array('q', 3 * size)`` in
    production, a plain list in tests): the peer rank it is blocked on
    (``-1`` when running), an opaque op ID for the report, and a stamp
    incremented on every state change.

    A cycle observed in one snapshot is *not* a deadlock: correct
    send-then-recv patterns (ring allgather, dissemination barrier)
    form transient cycles that resolve within one message latency.  A
    cycle is only confirmed when :meth:`probe` sees the *same* cycle
    with the *same stamps* on two consecutive probes — no participant
    made progress in between.
    """

    def __init__(
        self, board: MutableSequence[int], rank: int, size: int
    ) -> None:
        if len(board) < _SLOTS * size:
            raise ValueError("wait-for board too small for group size")
        self._board = board
        self.rank = rank
        self.size = size
        self._last_cycle: tuple[tuple[int, int], ...] | None = None

    # -- state transitions (called by the owning rank only) -----------------

    def begin_wait(self, peer: int, op_id: int) -> None:
        base = _SLOTS * self.rank
        self._board[base + 1] = op_id
        self._board[base + 2] += 1
        self._board[base] = peer  # publish last: peer slot gates edges

    def end_wait(self) -> None:
        base = _SLOTS * self.rank
        self._board[base] = _IDLE
        self._board[base + 2] += 1

    # -- detection ----------------------------------------------------------

    def snapshot(self) -> list[tuple[int, int, int]]:
        return [
            (
                int(self._board[_SLOTS * r]),
                int(self._board[_SLOTS * r + 1]),
                int(self._board[_SLOTS * r + 2]),
            )
            for r in range(self.size)
        ]

    def _find_cycle(
        self, snap: list[tuple[int, int, int]]
    ) -> list[int] | None:
        """The wait-for cycle through this rank, if one exists now."""
        path: list[int] = []
        seen: set[int] = set()
        r = self.rank
        while 0 <= r < self.size and r not in seen:
            seen.add(r)
            path.append(r)
            r = snap[r][0]
        if r == self.rank and len(path) > 1:
            return path
        return None

    def probe(self) -> None:
        """One detection round; raises :class:`DeadlockError` when a
        cycle through this rank has been stable across two probes."""
        snap = self.snapshot()
        cycle = self._find_cycle(snap)
        if cycle is None:
            self._last_cycle = None
            return
        witness = tuple((r, snap[r][2]) for r in cycle)
        if witness == self._last_cycle:
            edges = " -> ".join(
                f"rank {r} (op {snap[r][1]})" for r in cycle
            )
            self._last_cycle = None
            raise DeadlockError(
                f"wait-for cycle detected: {edges} -> rank {cycle[0]} — "
                "every participant is blocked on the next and none has "
                "made progress between probes",
                rule_id="SPMD203",
            )
        self._last_cycle = witness


def summarize_mismatch(
    group: Iterable[int],
    arrived: dict[int, CollectiveSignature],
    missing: Iterable[int],
    timeout: float,
) -> str:
    """Message for a matching round some members never joined
    (skipped collective / count divergence)."""
    have = ", ".join(
        f"rank {r}: {arrived[r].describe()}" for r in sorted(arrived)
    )
    lost = ", ".join(str(r) for r in sorted(missing))
    members = ", ".join(str(r) for r in group)
    return (
        f"collective matching round over group ({members}) timed out "
        f"after {timeout:.1f}s: rank(s) {lost} never submitted a "
        f"signature (skipped collective or diverged sequence); "
        f"arrived: {have}"
    )
