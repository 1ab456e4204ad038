"""Elastic in-run failure recovery for the process-parallel drivers.

PR 3 made rank failure *detectable* (seeded faults, RankFailureError,
disk checkpoints + ``repro resume``); this module makes it
*survivable* without a shared filesystem.  Three pieces:

**Diskless buddy checkpointing** (:meth:`RecoveryManager.replicate`).
At every sweep boundary each rank serializes its
:class:`~repro.distributed.checkpoint.SweepCheckpoint`
(:meth:`~repro.distributed.checkpoint.SweepCheckpoint.to_bytes`) and
ring-exchanges it over the existing Transport: rank ``r`` sends to
its buddy ``(r + 1) % size`` and holds the replica of
``(r - 1) % size``.  The exchange rides the raw
counter-neutral channel (like the shm free credits and the verifier's
control rounds), so the CollectiveRecord traces of an elastic run stay
bit-identical to a plain run's — replication is invisible to the
certified cost accounting.

**Survivor reports** (:meth:`RecoveryManager.on_failure`).  A dead
rank is EOF to every peer on both wires, so a survivor waiting on it
raises :class:`~repro.vmpi.transport.TransportClosedError` at once.
Under ``respawn`` the survivor then posts a ``"recovery"`` report —
its own boundary snapshot and the buddy replica it holds — and exits
like a ``restart`` survivor, so its own EOF wakes every peer still
waiting on it.  Nothing is agreed in-run: the launcher's failed set
(:attr:`~repro.vmpi.mp_comm.RankFailureError.failed_ranks`, the ranks
that raised, crashed or died without a report) is the one answer.
Transient stalls never reach this path: a stall shorter than
``CommConfig.collective_timeout`` is simply waited out, and a longer
one surfaces as :class:`~repro.vmpi.transport.CollectiveTimeoutError`;
only a closed transport — the permanent classification — triggers
recovery.

**Recovery policies** (:func:`run_elastic`), selected by
``CommConfig.recovery``:

* ``"restart"`` (default) — the PR-3 behavior: tear down, raise.
* ``"respawn"`` — relaunch the full-size world, every rank rehydrated
  from the newest snapshot of the last sweep boundary (injected as the
  drivers' ``resume`` argument).  The world size — and with it the
  processor grid, the block layout, every collective group, schedule,
  and reduction order — is exactly that of the original run, which is
  what makes the continuation *bit-identical*: mp_hooi results are not
  grid-invariant (reductions combine in group-rank order with
  grid-dependent blocking), so a re-gridded continuation could not
  reproduce the unfailed factors.

Respawn resumes from the last completed sweep boundary (including an
iteration-0 snapshot taken before the first sweep, so a crash in
sweep 1 is also covered) and produces factors bit-identical to an
unfailed run — certified by ``tests/test_recovery.py`` against the
PR-3 fault matrix on both wires.

Since every mp driver launches through :func:`run_elastic`, this module
also holds the launch helpers the three drivers share:
:func:`prepare_resume` (load and check a resume checkpoint),
:func:`scatter_blocks` (the per-rank input blocks) and
:func:`save_checkpoint` (one sweep boundary: the buddy exchange and
rank 0's disk checkpoint).
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from repro.core.errors import CheckpointError
from repro.distributed.checkpoint import SweepCheckpoint, tensor_digest
from repro.distributed.layout import BlockLayout
from repro.vmpi.grid import ProcessorGrid
from repro.vmpi.mp_comm import (
    CommConfig,
    ProcessComm,
    RankFailureError,
    _flight_snapshot,
    run_spmd,
)

__all__ = [
    "RecoveryEvent",
    "RecoveryManager",
    "prepare_resume",
    "run_elastic",
    "save_checkpoint",
    "scatter_blocks",
]

#: Tag kind of the buddy exchange.  It rides the raw counter-neutral
#: transport channel (``_post`` / ``_recv_body``), a namespace disjoint
#: from collective tags ``(op_id, phase)``, control tags
#: ``("ctl", ...)``, and the shm free credits.
_BUDDY_TAG = "buddy"


@dataclass
class RecoveryEvent:
    """One respawn episode, as observed by the orchestrator: the
    launcher's failed set, the survivors that reported, and the
    snapshot the continuation resumed from."""

    attempt: int
    failed: tuple[int, ...]
    reporters: tuple[int, ...]
    resumed_iteration: int
    source: str
    #: wall seconds of the continuation run (relaunch + remaining
    #: sweeps); filled in once that attempt returns.
    relaunch_seconds: float = -1.0
    #: rank -> FlightRing collected from the failed attempt — the
    #: flight-recorder events of the episode survive the respawn
    #: relaunch here.
    flight_records: dict | None = None
    #: the failed attempt's causal postmortem (or None).
    postmortem: object | None = None


class RecoveryManager:
    """Per-rank elastic recovery state, installed by ``ProcessComm``
    when ``CommConfig.recovery`` is ``respawn``.

    Holds the rank's own latest snapshot and the buddy replica it
    protects; on a peer's EOF builds the report the worker posts home.
    """

    def __init__(self, comm) -> None:
        self.comm = comm
        size = comm.size
        #: the rank holding *our* replica.
        self.buddy = (comm.rank + 1) % size
        #: the rank whose replica *we* hold.
        self.protects = (comm.rank - 1) % size
        self._seq = 0
        self.iteration = -1
        self.own_bytes: bytes | None = None
        self.replica_bytes: bytes | None = None

    # -- diskless buddy checkpointing ---------------------------------------

    def replicate(self, ck: SweepCheckpoint) -> None:
        """Ring-exchange this sweep boundary's checkpoint.

        Every rank calls this at the same program point (it pairs a
        non-blocking raw post with a blocking raw receive, so the ring
        completes without deadlock).  Factors
        are replicated across ranks, so each rank serializes its own
        complete state; what the exchange buys is *placement*: after a
        rank dies, its newest state is guaranteed to exist on a
        surviving process without any shared filesystem.
        """
        comm = self.comm
        t = comm._t
        self._seq += 1
        tag = (_BUDDY_TAG, self._seq)
        fr = comm.flight
        if fr is not None:
            fr.begin("buddy_replicate", "kernel", phase="buddy_replicate")
        try:
            payload = ck.to_bytes()
            t._post(self.buddy, tag, payload)
            blob = t._recv_body(
                self.protects, tag, comm.config.collective_timeout
            )
            self.own_bytes = payload
            self.replica_bytes = blob
            self.iteration = int(ck.iteration)
        finally:
            if fr is not None:
                fr.metrics.observe("buddy_replicate_seconds", fr.end())

    def on_failure(self, exc: BaseException) -> dict:
        """The report a survivor posts home after a peer's EOF: the
        iteration of its last boundary, its own snapshot, the replica
        it holds, and its flight ring."""
        comm = self.comm
        comm.note_event("recovery", repr(exc)[:120])
        fr = comm.flight
        if fr is not None:
            fr.begin("recovery", "phase", phase="recovery")
        report = {
            "iteration": self.iteration,
            "own": self.own_bytes,
            "replica": self.replica_bytes,
            "replica_from": self.protects,
        }
        if fr is not None:
            fr.metrics.observe("recovery_seconds", fr.end())
        report["flight"] = _flight_snapshot(comm)
        return report


# ---------------------------------------------------------------------------
# the orchestrator and the drivers' launch helpers
# ---------------------------------------------------------------------------


def prepare_resume(
    algorithm: str,
    x: np.ndarray,
    grid: ProcessorGrid,
    resume_from: str | SweepCheckpoint | None,
    checkpoint_path: str | None,
    *,
    max_iters: int,
) -> tuple[SweepCheckpoint | None, str]:
    """Load/validate a resume checkpoint; digest ``x`` when needed.

    ``max_iters`` is the driver's number of checkpoint boundaries (outer
    iterations, or modes for STHOSVD); a checkpoint that already covers
    them leaves nothing to resume.  The digest is only computed when
    checkpointing or resuming is requested — plain runs must not pay a
    full pass over ``x``.
    """
    if resume_from is None and checkpoint_path is None:
        return None, ""
    x_dig = tensor_digest(x)
    if resume_from is None:
        return None, x_dig
    resume = (
        resume_from
        if isinstance(resume_from, SweepCheckpoint)
        else SweepCheckpoint.load(resume_from)
    )
    resume.validate_resume(
        algorithm=algorithm,
        shape=tuple(x.shape),
        grid_dims=tuple(grid.dims),
        x_digest=x_dig,
    )
    if resume.iteration >= max_iters:
        raise CheckpointError(
            f"checkpoint already covers {resume.iteration} iterations; "
            f"max_iters={max_iters} leaves nothing to resume"
        )
    return resume, x_dig


def scatter_blocks(x: np.ndarray, grid: ProcessorGrid) -> list[np.ndarray]:
    """Every rank's block of ``x``, in rank order (each worker indexes
    its own by ``comm.rank``)."""
    layout = BlockLayout(x.shape, grid)
    return [
        np.ascontiguousarray(x[layout.local_slices(coords)])
        for _, coords in grid.iter_ranks()
    ]


def save_checkpoint(
    comm: ProcessComm,
    build: Callable[[int], SweepCheckpoint],
    completed: int,
    path: str | None,
) -> None:
    """One sweep boundary.  ``build(completed)`` is replicated to the
    buddy when recovery is armed and, on rank 0, written to ``path``
    when one is given (a ``checkpoint`` kernel span, timed into the
    ``checkpoint_write_seconds`` histogram).  When neither wants it,
    nothing is built."""
    mgr = comm.recovery_mgr
    write = path is not None and comm.rank == 0
    if mgr is None and not write:
        return
    ck = build(completed)
    ck.extra.update(world_size=comm.size, backend=comm._t.kind)
    if mgr is not None:
        mgr.replicate(ck)
    if write:
        fr = comm.flight
        if fr is not None:
            fr.begin("checkpoint", "kernel")
        ck.save(path)
        if fr is not None:
            fr.metrics.observe("checkpoint_write_seconds", fr.end())


def _pick_snapshot(reports: dict[int, dict]) -> tuple[bytes | None, int, str]:
    """The snapshot to resume from, its iteration, and where it came from.

    Factors are replicated, but only rank 0 appends the Alg. 3
    history, so the newest snapshot of rank 0's state wins: its own,
    or the buddy replica rank 1 holds for it.  The newest snapshot of
    any survivor is the fallback when neither reached the launcher.
    """
    # (holds rank 0's state, iteration, blob, source); max keeps the
    # first of equals, so ties go to the lower rank's own snapshot.
    found = []
    for r, rep in sorted(reports.items()):
        it = rep["iteration"]
        if rep["own"] is not None:
            found.append((r == 0, it, rep["own"], f"own snapshot of rank {r}"))
        if rep["replica"] is not None:
            p = rep["replica_from"]
            found.append((
                p == 0, it, rep["replica"],
                f"buddy replica of rank {p} held by rank {r}",
            ))
    if not found:
        return None, -1, ""
    _, it, blob, source = max(found, key=lambda f: f[:2])
    return blob, it, source


def run_elastic(
    fn: Callable[..., object],
    size: int,
    *args: object,
    timeout: float = 120.0,
    transport: str = "shm",
    config: CommConfig | None = None,
    collective_timeout: float | None = None,
    profile_out: dict[int, object] | None = None,
    events_out: list[RecoveryEvent] | None = None,
    monitor: object | None = None,
    max_attempts: int | None = None,
) -> list[object]:
    """:func:`~repro.vmpi.mp_comm.run_spmd` with in-run recovery.

    Runs ``fn`` like ``run_spmd``; when the world fails under
    ``respawn``, picks a snapshot from the survivor reports
    (:func:`_pick_snapshot`), passes it as the last argument (every
    rank program's ``resume`` parameter), strips the ``fault_plan`` (a
    seeded crash must not re-fire in the continuation), and relaunches
    the full-size world.  Repeats until the run completes or
    ``max_attempts`` (default: the world size) is exhausted; non-elastic
    configs and failures without recovery reports re-raise unchanged.

    ``events_out`` collects one :class:`RecoveryEvent` per episode
    (the benchmark and stats surfaces read these).
    """
    cfg = config or CommConfig()
    if cfg.recovery != "respawn" or size < 2:
        return run_spmd(
            fn, size, *args, timeout=timeout, transport=transport,
            config=cfg, collective_timeout=collective_timeout,
            profile_out=profile_out, monitor=monitor,
        )
    attempts = max_attempts if max_attempts is not None else size
    run_args = list(args)
    event: RecoveryEvent | None = None
    for attempt in range(attempts):
        t0 = time.monotonic()
        try:
            out = run_spmd(
                fn, size, *run_args, timeout=timeout, transport=transport,
                config=cfg, collective_timeout=collective_timeout,
                profile_out=profile_out, monitor=monitor,
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
            blob, resumed_it, source = _pick_snapshot(reports)
            if blob is None:
                raise
            run_args[-1] = SweepCheckpoint.from_bytes(blob)
            # The seeded fault already fired; re-arming it would crash
            # the continuation at the same op index forever.
            cfg = replace(cfg, fault_plan=None)
            event = RecoveryEvent(
                attempt=attempt,
                failed=exc.failed_ranks,
                reporters=tuple(sorted(reports)),
                resumed_iteration=resumed_it,
                source=source,
                flight_records=dict(exc.flight_records),
                postmortem=exc.postmortem,
            )
            if events_out is not None:
                events_out.append(event)
    raise AssertionError("unreachable")  # pragma: no cover
