"""Elastic in-run failure recovery for the process-parallel drivers.

PR 3 made rank failure *detectable* (seeded faults, RankFailureError,
disk checkpoints + ``repro resume``); this module makes it
*survivable* without a shared filesystem.  Three pieces:

**Diskless buddy checkpointing** (:meth:`RecoveryManager.replicate`).
At every sweep boundary each rank serializes its
:class:`~repro.distributed.checkpoint.SweepCheckpoint`
(:meth:`~repro.distributed.checkpoint.SweepCheckpoint.to_bytes`) and
ring-exchanges it over the existing Transport: rank ``r`` sends to
``(r + buddy_offset) % size`` and holds the replica of
``(r - buddy_offset) % size``.  The exchange rides the raw
counter-neutral channel (like the shm free credits and the verifier's
control rounds), so the CollectiveRecord traces of an elastic run stay
bit-identical to a plain run's — replication is invisible to the
certified cost accounting.

**Failure agreement** (:meth:`RecoveryManager.on_failure`).  On a peer
death — :class:`~repro.vmpi.transport.TransportClosedError` in-band on
either wire, or another survivor's revoke notice
(:class:`~repro.vmpi.transport.WorldRevokedError`) — the survivor
revokes the world (ULFM-style: a revoke notice wakes every peer still
blocked on a *live* rank) and runs a bounded two-round
suspect-set exchange so survivors converge on the same failed set.
The round is best-effort by construction (a survivor that never
enters a collective cannot answer and is over-suspected); the
launcher's liveness view is the authoritative arbiter — a rank is
failed iff it posted neither a result nor a recovery report.
Transient stalls never reach this path: they surface as
:class:`~repro.vmpi.transport.CollectiveTimeoutError` and are retried
by the ``transient_retries``/``retry_backoff`` machinery; only a
closed transport or an explicit revoke — the permanent classification
— triggers recovery.

**Recovery policies** (:func:`run_elastic`), selected by
``CommConfig.recovery``:

* ``"restart"`` (default) — the PR-3 behavior: tear down, raise.
* ``"respawn"`` — relaunch the full-size world, every rank rehydrated
  from the buddy replica of the newest sweep boundary (injected as the
  drivers' ``resume`` argument).
* ``"shrink"`` — relaunch on *fewer OS processes*: each failed logical
  rank is hosted as an extra thread (own transport endpoint, own
  ``ProcessComm``) inside its buddy's process via ``run_spmd``'s
  ``host_map``.  The logical world size — and with it the processor
  grid, the block layout, every collective group, schedule, and
  reduction order — is exactly that of the original run, which is what
  makes the continuation *bit-identical*: mp_hooi results are not
  grid-invariant (reductions combine in group-rank order with
  grid-dependent blocking), so a true re-gridding could not reproduce
  the unfailed factors.

Both elastic policies resume from the last completed sweep boundary
(including an iteration-0 snapshot taken before the first sweep, so a
crash in sweep 1 is also covered) and produce factors bit-identical to
an unfailed run at the same world size — certified by
``tests/test_recovery.py`` against the PR-3 fault matrix on both
wires.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

from repro.distributed.checkpoint import SweepCheckpoint
from repro.vmpi.mp_comm import (
    ELASTIC_POLICIES,
    CommConfig,
    RankFailureError,
    _flight_snapshot,
    run_spmd,
)
from repro.vmpi.transport import (
    CollectiveTimeoutError,
    TransportClosedError,
)

__all__ = [
    "RecoveryEvent",
    "RecoveryManager",
    "run_elastic",
    "shrink_host_map",
]

#: Tag kinds of the recovery control plane.  They ride the raw
#: counter-neutral transport channel (``_post`` / ``_recv_body``), a
#: namespace disjoint from collective tags ``(op_id, phase)``, control
#: tags ``("ctl", ...)``, and the shm free credits.
_BUDDY_TAG = "buddy"
_AGREE_TAG = "agree"


@dataclass
class RecoveryEvent:
    """One recovery episode, as observed by the orchestrator."""

    policy: str
    attempt: int
    failed: tuple[int, ...]
    reporters: tuple[int, ...]
    resumed_iteration: int
    source: str
    agree_seconds: float
    #: wall seconds of the continuation run (relaunch + remaining
    #: sweeps); filled in once that attempt returns.
    relaunch_seconds: float = -1.0
    #: rank -> FlightRing collected from the failed attempt — the
    #: flight-recorder events of the episode survive the respawn/
    #: shrink relaunch here (hosted ranks included: each gets its own
    #: comm and therefore its own ring).
    flight_records: dict | None = None
    #: the failed attempt's causal postmortem (or None).
    postmortem: object | None = None


class RecoveryManager:
    """Per-rank elastic recovery state, installed by ``ProcessComm``
    when ``CommConfig.recovery`` is ``respawn`` or ``shrink``.

    Holds the rank's own latest snapshot and the buddy replica it
    protects; on failure runs the revoke-and-agree round and builds
    the report the worker posts home.
    """

    def __init__(self, comm) -> None:
        self.comm = comm
        size = comm.size
        offset = int(comm.config.buddy_offset) % size
        if offset == 0:
            offset = 1 if size > 1 else 0
        self.buddy_offset = offset
        #: the rank holding *our* replica.
        self.buddy = (comm.rank + offset) % size
        #: the rank whose replica *we* hold.
        self.protects = (comm.rank - offset) % size
        self._seq = 0
        self.iteration = -1
        self.own_bytes: bytes | None = None
        self.replica_bytes: bytes | None = None

    # -- diskless buddy checkpointing ---------------------------------------

    def replicate(self, ck: SweepCheckpoint) -> None:
        """Ring-exchange this sweep boundary's checkpoint.

        Every rank calls this at the same program point (it pairs a
        non-blocking raw post with a blocking raw receive, so any
        ``buddy_offset`` ring completes without deadlock).  Factors
        are replicated across ranks, so each rank serializes its own
        complete state; what the exchange buys is *placement*: after a
        rank dies, its newest state is guaranteed to exist on a
        surviving process without any shared filesystem.
        """
        comm = self.comm
        t = comm._t
        self._seq += 1
        tag = (_BUDDY_TAG, self._seq)
        prof = comm.profiler
        if prof is not None:
            prof.begin("buddy_replicate", "kernel", phase="buddy_replicate")
        t0 = time.perf_counter()
        try:
            payload = ck.to_bytes()
            t._post(self.buddy, tag, payload)
            blob = t._recv_body(
                self.protects, tag, comm.config.collective_timeout
            )
            self.own_bytes = payload
            self.replica_bytes = blob
            self.iteration = int(ck.iteration)
            comm.note_event(
                "replicate",
                {"iteration": self.iteration, "buddy": self.buddy},
            )
        finally:
            if prof is not None:
                prof.end()
                prof.metrics.observe(
                    "buddy_replicate_seconds", time.perf_counter() - t0
                )

    # -- revoke and agree ---------------------------------------------------

    def on_failure(self, exc: BaseException) -> dict:
        """Revoke the world, agree on the failed set, build the report.

        Bounded: two fixed agreement rounds, each waiting at most
        ``CommConfig.agree_timeout`` per unreachable peer.  Every wire
        interaction is best-effort — a peer that cannot be reached is
        a suspect, never a hang.
        """
        comm = self.comm
        t = comm._t
        t0 = time.perf_counter()
        comm.note_event("recovery", repr(exc)[:120])
        prof = comm.profiler
        if prof is not None:
            prof.begin("recovery", "phase", phase="recovery")
        suspects: set[int] = set(getattr(exc, "failed_hint", ()) or ())
        suspects |= set(getattr(t, "_gone", ()))
        suspects |= set(t.revoked_hint)
        suspects.discard(comm.rank)
        # Survivors keep receiving during the agreement; the revoked
        # flag must not abort their own recovery waits.
        t._in_recovery = True
        # Wake peers still blocked on live ranks: without this, a
        # survivor two hops from the dead rank would wait out its full
        # collective timeout before noticing anything happened.
        t.post_revoke(frozenset(suspects))
        suspects |= set(t.revoked_hint)
        suspects.discard(comm.rank)
        t_agree = time.perf_counter()
        if prof is not None:
            prof.begin("agree", "phase", phase="agree")
        try:
            agreed = self._agree(suspects)
        finally:
            if prof is not None:
                prof.end()
        agree_seconds = time.perf_counter() - t_agree
        report = {
            "rank": comm.rank,
            "failed": sorted(agreed),
            "iteration": self.iteration,
            "replica": self.replica_bytes,
            "replica_from": self.protects,
            "own": self.own_bytes,
            "error": repr(exc),
            "agree_seconds": agree_seconds,
        }
        if prof is not None:
            prof.end()
            prof.metrics.observe("recovery_agree_seconds", agree_seconds)
            prof.metrics.observe(
                "recovery_seconds", time.perf_counter() - t0
            )
            prof.finalize_transport(t)
            report["profile"] = prof.rank_profile()
        report["flight"] = _flight_snapshot(comm)
        report["recovery_seconds"] = time.perf_counter() - t0
        return report

    def _agree(self, suspects: set[int]) -> set[int]:
        """Two-round suspect-set exchange (exchange, then re-exchange
        the unions).  With every survivor seeded the same hint — the
        common case on both wires, since the detector broadcasts its
        suspects in the revoke notice — both rounds complete at
        message latency; timeouts only arm for peers that really
        cannot answer, and those become suspects themselves."""
        comm = self.comm
        t = comm._t
        agreed = set(suspects)
        wait = max(0.05, float(comm.config.agree_timeout))
        for rnd in (1, 2):
            tag = (_AGREE_TAG, rnd)
            notice = sorted(agreed)
            for peer in range(comm.size):
                if peer == comm.rank or peer in agreed:
                    continue
                try:
                    t._post(peer, tag, notice)
                except (OSError, CollectiveTimeoutError):
                    agreed.add(peer)
            for peer in range(comm.size):
                if peer == comm.rank or peer in agreed:
                    continue
                try:
                    got = t._recv_body(peer, tag, wait)
                    agreed.update(int(r) for r in got)
                except (OSError, CollectiveTimeoutError):
                    agreed.add(peer)
            agreed.discard(comm.rank)
        return agreed


# ---------------------------------------------------------------------------
# the orchestrator
# ---------------------------------------------------------------------------


def shrink_host_map(
    host_map: Sequence[Sequence[int]] | None,
    failed: set[int],
    size: int,
    buddy_offset: int = 1,
) -> list[list[int]]:
    """The post-shrink process layout: failed logical ranks move in
    with their buddies.

    A process death orphans *all* its hosted ranks; each orphan walks
    the buddy ring (``+buddy_offset``) to the first logical rank still
    hosted by a surviving process and joins that process.  Raises
    :class:`RankFailureError` if no process survived.
    """
    hm = (
        [list(entry) for entry in host_map]
        if host_map is not None
        else [[r] for r in range(size)]
    )
    offset = buddy_offset % size or 1
    dead_procs = {
        pi for pi, hosted in enumerate(hm)
        if any(r in failed for r in hosted)
    }
    orphans = sorted(r for pi in dead_procs for r in hm[pi])
    keep = [hosted for pi, hosted in enumerate(hm) if pi not in dead_procs]
    if not keep:
        raise RankFailureError(
            f"shrink: every process died (failed ranks {sorted(failed)})",
            failed=sorted(failed),
        )
    owner = {r: hosted for hosted in keep for r in hosted}
    for r in orphans:
        target = (r + offset) % size
        while target not in owner:
            target = (target + offset) % size
        owner[target].append(r)
        owner[r] = owner[target]
    return keep


def _pick_snapshot(
    reports: dict[int, dict], failed: set[int]
) -> tuple[bytes | None, int, str]:
    """The newest replicated snapshot among the survivor reports.

    Prefers a buddy replica held *for* a failed rank (the protocol's
    reason to exist); falls back to any survivor's own snapshot of the
    same boundary (identical content — factors are replicated).
    """
    best_it = max(
        (int(rep.get("iteration", -1)) for rep in reports.values()),
        default=-1,
    )
    if best_it < 0:
        return None, -1, ""
    for r in sorted(reports):
        rep = reports[r]
        if (
            int(rep.get("iteration", -1)) == best_it
            and rep.get("replica") is not None
            and rep.get("replica_from") in failed
        ):
            return (
                rep["replica"],
                best_it,
                f"buddy replica of rank {rep['replica_from']} "
                f"held by rank {r}",
            )
    for r in sorted(reports):
        rep = reports[r]
        if (
            int(rep.get("iteration", -1)) == best_it
            and rep.get("own") is not None
        ):
            return rep["own"], best_it, f"own snapshot of rank {r}"
    return None, -1, ""


def run_elastic(
    fn: Callable[..., object],
    size: int,
    *args: object,
    resume_slot: int,
    timeout: float = 120.0,
    transport: str = "p2p",
    config: CommConfig | None = None,
    collective_timeout: float | None = None,
    profile_out: dict[int, object] | None = None,
    events_out: list[RecoveryEvent] | None = None,
    monitor: object | None = None,
    max_attempts: int | None = None,
) -> list[object]:
    """:func:`~repro.vmpi.mp_comm.run_spmd` with in-run recovery.

    Runs ``fn`` like ``run_spmd``; when the world fails under an
    elastic policy, picks the newest buddy replica from the survivor
    reports, injects it at ``args[resume_slot]`` (the driver's
    ``resume`` parameter), strips the ``fault_plan`` (a seeded crash
    must not re-fire in the continuation), and relaunches — full size
    for ``respawn``, survivors-host-the-dead (``host_map``) for
    ``shrink``.  Repeats until the run completes or ``max_attempts``
    (default: the world size) is exhausted; non-elastic configs and
    failures without recovery reports re-raise unchanged.

    ``events_out`` collects one :class:`RecoveryEvent` per episode
    (the benchmark and stats surfaces read these).
    """
    cfg = config or CommConfig()
    if cfg.recovery not in ELASTIC_POLICIES or size < 2:
        return run_spmd(
            fn, size, *args, timeout=timeout, transport=transport,
            config=cfg, collective_timeout=collective_timeout,
            profile_out=profile_out, monitor=monitor,
        )
    attempts = max_attempts if max_attempts is not None else size
    run_args = list(args)
    host_map: list[list[int]] | None = None
    event: RecoveryEvent | None = None
    for attempt in range(attempts):
        t0 = time.monotonic()
        try:
            out = run_spmd(
                fn, size, *run_args, timeout=timeout, transport=transport,
                config=cfg, collective_timeout=collective_timeout,
                profile_out=profile_out, monitor=monitor,
                host_map=host_map,
            )
            if event is not None:
                event.relaunch_seconds = time.monotonic() - t0
            return out
        except RankFailureError as exc:
            if event is not None:
                event.relaunch_seconds = time.monotonic() - t0
            reports = exc.recovery_reports
            if not reports or attempt == attempts - 1:
                raise
            failed = set(exc.failed_ranks)
            blob, resumed_it, source = _pick_snapshot(reports, failed)
            if blob is None:
                raise
            run_args[resume_slot] = SweepCheckpoint.from_bytes(blob)
            # The seeded fault already fired; re-arming it would crash
            # the continuation at the same op index forever.
            cfg = replace(cfg, fault_plan=None)
            if cfg.recovery == "shrink":
                host_map = shrink_host_map(
                    host_map, failed, size, cfg.buddy_offset
                )
            event = RecoveryEvent(
                policy=cfg.recovery,
                attempt=attempt,
                failed=tuple(sorted(failed)),
                reporters=tuple(sorted(reports)),
                resumed_iteration=resumed_it,
                source=source,
                agree_seconds=max(
                    (
                        float(rep.get("agree_seconds", 0.0))
                        for rep in reports.values()
                    ),
                    default=0.0,
                ),
                flight_records=dict(exc.flight_records),
                postmortem=exc.postmortem,
            )
            if events_out is not None:
                events_out.append(event)
    raise AssertionError("unreachable")  # pragma: no cover
