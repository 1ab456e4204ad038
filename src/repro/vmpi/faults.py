"""Deterministic fault injection for the process-parallel layer.

Long-running distributed decompositions must survive transient faults
and node loss (TuckerMPI-scale sweeps forfeit hours of progress when a
single rank dies).  To make every failure mode *testable*, this module
defines a seeded :class:`FaultPlan` that the launcher threads through
:class:`~repro.vmpi.mp_comm.CommConfig` into every rank.  A plan is a
tuple of :class:`FaultSpec` entries, each naming a target rank and an
optional ``(phase, collective-index)`` trigger point:

``delay``
    Sleep ``delay`` seconds at the collective boundary — a transient
    transport stall.  Peers blocked on the stalled rank observe it as
    a slow network: they ride it out when the stall is shorter than
    ``CommConfig.collective_timeout`` and raise
    :class:`~repro.vmpi.mp_comm.CollectiveTimeoutError` otherwise.
``drop``
    Silently discard this rank's next matching transport send — a lost
    message.  The receiving peer times out (the collective is dead).
``bitflip``
    Flip one seeded-random bit in the next matching payload — silent
    data corruption on the wire.  Pair with
    ``CommConfig.check_numerics`` to study detection.
``crash``
    Raise :class:`InjectedRankCrash` at the collective boundary.  With
    ``hard=True`` (default) the worker ships a best-effort crash
    report and then dies via ``os._exit`` — no cleanup, no sentinel,
    orphaned shared memory — simulating node loss; with ``hard=False``
    the exception unwinds normally (a soft failure).

Everything is deterministic: trigger points are exact matches and the
bit-flip positions come from a per-rank generator seeded from
``FaultPlan.seed``, so a failing scenario replays bit-identically.
When no plan is set the injector is never constructed and the hot
paths pay a single ``is None`` test.

The wire hooks (``on_send``) fire at the :class:`~repro.vmpi.
transport.Transport` boundary — *before* the backend encodes the
payload — so the same seeded plan drops or corrupts a pooled
shared-memory segment on the shm backend and a length-prefixed frame
on the tcp backend identically; crash/delay specs fire at the
collective boundary, which no backend sees at all.  Fault plans
therefore work on every transport without backend-specific code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EXIT_INJECTED_CRASH",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedRankCrash",
]

#: Exit code of a worker killed by a ``crash`` fault (hard mode), so
#: the launcher's liveness detector can attribute the death.
EXIT_INJECTED_CRASH = 86

_KINDS = frozenset({"delay", "drop", "bitflip", "crash"})


class InjectedRankCrash(RuntimeError):
    """Raised inside a worker by a ``crash`` fault.

    ``hard`` selects the failure mode the worker applies after shipping
    its crash report: ``os._exit`` (simulated node loss) versus normal
    exception unwinding (soft failure).
    """

    def __init__(self, message: str, *, hard: bool = True) -> None:
        super().__init__(message)
        self.hard = hard

    def __reduce__(self):  # keep picklability with the kwarg
        return (_rebuild_crash, (self.args[0], self.hard))


def _rebuild_crash(message: str, hard: bool) -> "InjectedRankCrash":
    return InjectedRankCrash(message, hard=hard)


@dataclass(frozen=True)
class FaultSpec:
    """One injection point.

    Attributes
    ----------
    kind:
        ``"delay"``, ``"drop"``, ``"bitflip"`` or ``"crash"``.
    rank:
        Global rank the fault fires on.
    op_index:
        1-based collective index (the per-rank operation counter every
        collective increments); ``None`` matches any collective.
    phase:
        Caller-set phase label (``comm.phase``) the collective must
        carry; ``None`` matches any phase.
    delay:
        Stall duration in seconds (``delay`` kind only).
    count:
        Maximum number of firings (``drop``/``bitflip``/``delay``);
        a ``crash`` fires at most once by construction.
    hard:
        ``crash`` only: die via ``os._exit`` (True) or unwind (False).
    """

    kind: str
    rank: int
    op_index: int | None = None
    phase: str | None = None
    delay: float = 0.0
    count: int = 1
    hard: bool = True

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (expected one of "
                f"{sorted(_KINDS)})"
            )
        if self.rank < 0:
            raise ValueError("fault rank must be non-negative")
        if self.kind == "delay" and self.delay <= 0:
            raise ValueError("delay faults need delay > 0")
        if self.count < 1:
            raise ValueError("count must be >= 1")

    def matches(self, rank: int, op_index: int, phase: str) -> bool:
        return (
            self.rank == rank
            and (self.op_index is None or self.op_index == op_index)
            and (self.phase is None or self.phase == phase)
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, picklable set of injection points.

    Thread through ``CommConfig(fault_plan=...)``; ``run_spmd`` ships
    the config to every rank, so the same plan object reproduces the
    same failure everywhere.
    """

    faults: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def for_rank(self, rank: int) -> tuple[FaultSpec, ...]:
        """The subset of specs targeting ``rank``."""
        return tuple(f for f in self.faults if f.rank == rank)

    # -- convenience constructors (the common single-fault plans) -----------

    @classmethod
    def kill(
        cls,
        rank: int,
        *,
        op_index: int | None = None,
        phase: str | None = None,
        hard: bool = True,
        seed: int = 0,
    ) -> "FaultPlan":
        """Plan with a single ``crash`` fault."""
        return cls(
            faults=(
                FaultSpec(
                    "crash", rank, op_index=op_index, phase=phase, hard=hard
                ),
            ),
            seed=seed,
        )

    @classmethod
    def stall(
        cls,
        rank: int,
        delay: float,
        *,
        op_index: int | None = None,
        phase: str | None = None,
        count: int = 1,
        seed: int = 0,
    ) -> "FaultPlan":
        """Plan with a single ``delay`` fault."""
        return cls(
            faults=(
                FaultSpec(
                    "delay",
                    rank,
                    op_index=op_index,
                    phase=phase,
                    delay=delay,
                    count=count,
                ),
            ),
            seed=seed,
        )


def _first_array(payload: object) -> np.ndarray | None:
    """The first ndarray reachable inside a transport payload."""
    if isinstance(payload, np.ndarray):
        return payload
    if isinstance(payload, dict):
        for v in payload.values():
            if isinstance(v, np.ndarray):
                return v
    if isinstance(payload, (tuple, list)):
        for v in payload:
            if isinstance(v, np.ndarray):
                return v
    return None


def _replace_array(payload: object, old: np.ndarray, new: np.ndarray):
    if payload is old:
        return new
    if isinstance(payload, dict):
        return {k: (new if v is old else v) for k, v in payload.items()}
    if isinstance(payload, tuple):
        return tuple(new if v is old else v for v in payload)
    if isinstance(payload, list):
        return [new if v is old else v for v in payload]
    return payload


class FaultInjector:
    """Per-rank runtime state of a :class:`FaultPlan`.

    The communicator calls :meth:`at_collective` as every collective
    starts (setting the ``(op_index, phase)`` context and firing
    boundary faults); the transport calls :meth:`on_send` per outgoing
    message (firing wire faults in that context).  ``fired`` logs every
    firing as ``(kind, op_index, phase)`` for assertions.
    """

    def __init__(self, plan: FaultPlan, rank: int) -> None:
        self.rank = rank
        self._armed: list[list] = [
            [spec, spec.count] for spec in plan.for_rank(rank)
        ]
        self._rng = np.random.default_rng([plan.seed, rank])
        self.op_index = 0
        self.phase = ""
        self.fired: list[tuple[str, int, str]] = []

    def _take(self, kinds: tuple[str, ...]) -> FaultSpec | None:
        """Consume one firing of the first armed matching spec."""
        for entry in self._armed:
            spec, remaining = entry
            if remaining <= 0 or spec.kind not in kinds:
                continue
            if spec.matches(self.rank, self.op_index, self.phase):
                entry[1] = remaining - 1
                self.fired.append((spec.kind, self.op_index, self.phase))
                return spec
        return None

    def at_collective(self, op_index: int, phase: str) -> None:
        """Boundary hook: update context, fire crash/delay faults."""
        self.op_index = op_index
        self.phase = phase
        spec = self._take(("crash", "delay"))
        if spec is None:
            return
        if spec.kind == "crash":
            raise InjectedRankCrash(
                f"injected crash on rank {self.rank} at collective "
                f"#{op_index} (phase {phase!r})",
                hard=spec.hard,
            )
        time.sleep(spec.delay)

    def on_send(self, payload: object) -> tuple[object, bool]:
        """Wire hook: returns ``(payload, dropped)``.

        ``drop`` discards the message (the caller must not enqueue it);
        ``bitflip`` returns a copy of the payload with one seeded bit
        flipped in its first array.
        """
        spec = self._take(("drop",))
        if spec is not None:
            return payload, True
        spec = self._take(("bitflip",))
        if spec is not None:
            arr = _first_array(payload)
            if arr is not None and arr.nbytes > 0:
                flipped = np.array(arr, copy=True)
                raw = flipped.view(np.uint8).reshape(-1)
                bit = int(self._rng.integers(0, raw.size * 8))
                raw[bit // 8] ^= np.uint8(1 << (bit % 8))
                payload = _replace_array(payload, arr, flipped)
        return payload, False
