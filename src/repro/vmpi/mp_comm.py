"""A real process-parallel mini-MPI built on ``multiprocessing``.

Everything else in :mod:`repro.vmpi` simulates; this module *executes*:
``run_spmd`` launches one OS process per rank and gives each a
communicator supporting the collectives the Tucker algorithms need
(allreduce, reduce-scatter, allgather, all-to-all, broadcast, gather,
barrier) with sub-communicators for the per-mode operations.

Two wires carry the same communicator:

* ``"shm"`` (default, :class:`ProcessComm` over
  :class:`~repro.vmpi.transport.ShmPoolTransport`) — a peer-to-peer
  point-to-point layer (tagged, length-prefixed frames over one
  AF_UNIX socketpair per rank pair; NumPy payloads of at least a size
  threshold travel through *pooled* ``/dev/shm`` segments that both
  ranks map, without pickling, and only their names ride the stream)
  with *real* collective algorithms on top: pairwise-exchange
  reduce-scatter and all-to-all, ring allgather, Bruck-gather or
  pairwise reduce-scatter + ring allgather allreduce, binomial-tree
  bcast/gather, and a dissemination barrier.  The
  allreduce is chosen by payload size with the threshold the
  alpha-beta cost formulas of :mod:`repro.vmpi.collectives` imply, so
  the schedule executed here matches what the simulator charges
  (``tests/test_schedule_cost.py`` certifies this against the
  per-collective :class:`~repro.vmpi.trace.CollectiveRecord` counters).
* ``"tcp"`` (:class:`ProcessComm` over
  :class:`~repro.vmpi.transport.TcpSocketTransport`) — the same
  communicator, collective algorithms, and frames on one loopback
  TCP connection per rank pair.  Bit-identical results and identical
  collective traces (``shm_messages`` aside), just a different socket.

``run_spmd`` connects every rank pair on either wire
(:func:`~repro.vmpi.transport.connect_mesh`) before it forks, as an
MPI launcher wires up its communicator before user code runs.

Both wires detect failures in-band: a rank that raises, exits, or
dies closes its sockets, so a peer waiting on it sees EOF and raises
:class:`TransportClosedError` at once, with its flight ring intact.

Programs must be *loosely synchronous*: every member of a collective's
group must reach that collective after the same number of prior
communicator calls (the natural property of SPMD programs).  Divergent
call sequences raise :class:`CollectiveTimeoutError` after
``CommConfig.collective_timeout`` seconds instead of deadlocking.

Every reduction combines contributions in group-rank order, which
makes results bit-identical to the sequential left-to-right sums of
the executable block collectives — and therefore ``mp_sthosvd``
bit-identical to ``spmd_sthosvd``.  Each collective runs one schedule
through one code path, :meth:`ProcessComm._collective`, which owns the
order of the hooks every collective passes.
"""

from __future__ import annotations

import glob
import math
import os
import pickle
import queue as queue_mod
import socket
import sys
import time
import traceback as traceback_mod
import uuid
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

import multiprocessing as mp
import numpy as np

from repro.core.errors import NumericalFaultError
from repro.observability.telemetry import (
    FlightRecorder,
    TelemetryPusher,
    build_postmortem,
)
from repro.vmpi.collectives import select_allreduce_algorithm
from repro.vmpi.faults import (
    EXIT_INJECTED_CRASH,
    FaultInjector,
    FaultPlan,
    InjectedRankCrash,
)
from repro.vmpi.trace import CollectiveRecord, CommTrace
from repro.vmpi.transport import (  # noqa: F401  (re-exported)
    CollectiveTimeoutError,
    ShmPoolTransport,
    TcpSocketTransport,
    Transport,
    TransportClosedError,
    _FREE_TAG,
    _SHM_DIR,
    _contig,
    _payload_arrays,
    connect_mesh,
)

__all__ = [
    "CollectiveTimeoutError",
    "CommConfig",
    "ProcessComm",
    "RankFailureError",
    "ShmPoolTransport",
    "TcpSocketTransport",
    "Transport",
    "TransportClosedError",
    "run_spmd",
]

#: The wires :func:`run_spmd` accepts (``repro run --backend``).
TRANSPORTS = ("shm", "tcp")


#: Liveness poll cadence of the launcher while awaiting results.
_LIVENESS_POLL = 0.25

#: Once a failure is observed (error result or dead process), how long
#: the launcher keeps draining in-flight results before aborting the
#: survivors that neither reported nor exited.  The launcher leaves
#: earlier once every rank has, so this bounds only the stuck case.
_ABORT_GRACE = 2.0


class RankFailureError(RuntimeError):
    """One or more SPMD ranks failed (raised by :func:`run_spmd`).

    The message carries, per failed rank, the remote traceback and the
    tail of its executed-collective trace; the attributes give the
    structured view:

    ``failed_ranks``
        Ranks that raised, crashed, or died without posting a result.
    ``succeeded_ranks``
        Ranks whose results arrived before the abort.
    ``aborted_ranks``
        Healthy ranks the launcher terminated once the failure was
        detected (their collectives could never complete).
    ``exitcodes``
        ``rank -> exitcode`` for ranks whose *process* died (crashes
        and kills; absent for ordinary raised exceptions).
    ``recovery_reports``
        Elastic runs (``CommConfig.recovery="respawn"``) only:
        ``rank -> report`` from every survivor that saw a peer's EOF,
        each carrying its last replicated iteration, its own serialized
        boundary snapshot and the buddy replica it holds — everything
        :func:`repro.distributed.recovery.run_elastic` needs to
        continue the run.
    ``flight_records``
        ``rank -> FlightRing`` — every flight-recorder ring that
        reached the launcher (failed ranks embed theirs in the failure
        report, each with its last *open* span and a start timestamp,
        so a hang is attributable to a phase; finished ranks ship
        theirs before their result; woken survivors post theirs on the
        way out).  Empty only when ``CommConfig.flight`` was off.
    ``postmortem``
        :class:`repro.observability.telemetry.Postmortem` merging the
        collected rings into one causally-ordered global timeline with
        a verdict naming the diverging rank and collective, or
        ``None`` when no rings were collected.
    """

    def __init__(
        self,
        message: str,
        *,
        failed: Sequence[int] = (),
        succeeded: Sequence[int] = (),
        aborted: Sequence[int] = (),
        exitcodes: dict[int, int] | None = None,
        recovery_reports: dict[int, dict] | None = None,
        flight_records: dict[int, object] | None = None,
        postmortem: object | None = None,
    ) -> None:
        super().__init__(message)
        self.failed_ranks = tuple(failed)
        self.succeeded_ranks = tuple(succeeded)
        self.aborted_ranks = tuple(aborted)
        self.exitcodes = dict(exitcodes or {})
        self.recovery_reports = dict(recovery_reports or {})
        self.flight_records = dict(flight_records or {})
        self.postmortem = postmortem


@dataclass(frozen=True)
class CommConfig:
    """Tunables for the process-parallel communicators.

    Attributes
    ----------
    collective_timeout:
        Seconds any single message wait may block before a
        :class:`CollectiveTimeoutError` is raised.
    shm_min_bytes:
        Array payloads of at least this many bytes travel through a
        pooled ``/dev/shm`` segment (no pickling); smaller ones are
        pickled into the frame on the rank pair's socket stream.  In a
        2-rank ping-pong on a 2-vCPU VM, a warm (pooled) segment beats
        the socket at every size from 2 KiB (by 10% there, 2x at
        64 KiB), and a cold one (the first exchange of a world, which
        creates and maps a segment on each rank) from about 32 KiB.
        The default (256 KiB) sits above both crossovers; lowering it
        changes which payloads of every solver ride segments, so it
        waits for an end-to-end measurement.
    eager_max_words:
        Override for the short/long allreduce threshold (in array
        elements).  ``None`` derives it from the alpha-beta machine
        constants via
        :func:`repro.vmpi.collectives.select_allreduce_algorithm`,
        whose crossover is infinite for groups of at most two ranks,
        so this override is the only way to run the long allreduce
        there.
    fault_plan:
        Seeded :class:`~repro.vmpi.faults.FaultPlan` of injection
        points (delays, drops, bit-flips, crashes).  ``None`` (the
        default) constructs no injector — the hot paths pay a single
        ``is None`` test.
    check_numerics:
        Screen every collective result for NaN/Inf and raise a typed
        :class:`~repro.core.errors.NumericalFaultError` naming the
        rank, phase, and collective when corruption is observed.
    recovery:
        What happens when a rank dies mid-run.  ``"restart"`` (the
        default) keeps the PR-3 behavior: the world tears down and
        :class:`RankFailureError` is raised.  ``"respawn"`` arms
        elastic recovery (:mod:`repro.distributed.recovery`): every
        rank replicates its sweep state to its buddy
        ``(rank + 1) % size`` over the transport; a survivor that sees
        a peer's EOF posts its own snapshot and the replica it holds
        and exits like a ``"restart"`` survivor (its EOF wakes the
        peers still waiting on it); and the orchestrator relaunches a
        full-size world from the launcher's failed set and the newest
        snapshot (the world size and hence every collective schedule
        is preserved, which is what makes the continuation
        bit-identical).
    verify:
        Run the tier-2 SPMD correctness verifier
        (:mod:`repro.analysis.verify.runtime`): every collective is
        stamped with a per-communicator sequence number and signature
        (kind, op, root, axis, dtype, shape contract) cross-checked at
        the group head before the payload moves, so a mismatched
        schedule raises a named ``CollectiveMismatchError`` (which
        ranks, which call sites, both signatures) instead of timing
        out; blocked receives publish to a shared wait-for board so
        actual deadlock *cycles* are reported (``DeadlockError``)
        within ~2 s; and an shm-lifecycle sanitizer checks every
        pooled segment for use-after-release, double-release, and
        leak-at-exit.  Control traffic is counter-neutral (like the
        ``shmfree`` credits), so traces and reductions stay
        bit-identical to a non-verify run.
    race_detect:
        Arm the tier-2 transport occupancy guard
        (:class:`repro.analysis.verify.races.TransportGuard`) on every
        rank's transport.  Each rank is its own process, so the only
        thread that shares a rank's transport is the ``overlap``
        prefetch worker; a second thread entering the transport while
        another is still inside raises ``RaceError`` (SPMD223) naming
        both threads and both call sites.  Nothing on the payload path
        changes, so clean guarded runs stay bit- and trace-identical
        (``bench_overhead.py`` measures the cost).
    overlap:
        Pipeline (double-buffer) the reduction collectives: each
        receive is prefetched on a per-rank overlap
        worker thread while the main thread folds the previous
        contribution into the accumulator (pairwise reduce-scatter) or
        copies the previous ring chunk into the output vector (the
        allgather stage of long allreduces), hiding wire wait and
        shm/socket copy-out behind payload math.  The message
        schedule, tags, payloads, reduction order, and counters are
        all unchanged, so overlapped runs stay bit-identical and
        trace-counter-identical to serial runs; with ``flight`` on,
        the hidden blocked time is attributed to
        ``collective_wait_hidden_seconds`` instead of
        ``collective_wait_seconds``, which is how the attribution
        report shows the visible-wait share shrinking.  The strict
        one-in-flight hand-off means the transport never has two
        threads in it at once.  Off by default.  (The plain ring
        allgather is unaffected: its steps are serially dependent and
        it has no local payload math to hide; overlap pays off where
        the α-β model charges per-step payload work.)
    flight:
        The per-rank recorder
        (:class:`repro.observability.telemetry.FlightRecorder`): a
        bounded ring of structured events -- collective begin/end with
        group and sequence number, transport posts, sweep, phase and
        kernel spans, checkpoint/replication/recovery steps, guard-rail
        trips -- plus a metrics registry (bytes moved, TTM flops and
        count, checkpoint write time, collective wait-vs-transfer
        split).  Each event costs one clock read and one deque append
        and nothing on the payload path is touched, so
        recorder-on runs stay bit- and trace-identical
        (``bench_overhead.py`` measures the cost).  :func:`run_spmd`
        gathers every rank's ring (``profile_out``), and on failure
        merges them into a causal postmortem timeline attached to
        :class:`RankFailureError`.  Rings keep the last
        :data:`repro.observability.telemetry.RING_CAPACITY` events per
        rank.  On by default; off, no recorder exists and every
        boundary pays a single ``is None`` test, like ``fault_plan`` --
        the baseline of overhead measurements.
    """

    collective_timeout: float = 60.0
    shm_min_bytes: int = 1 << 18
    overlap: bool = False
    eager_max_words: int | None = None
    fault_plan: FaultPlan | None = None
    check_numerics: bool = False
    recovery: str = "restart"
    verify: bool = False
    race_detect: bool = False
    flight: bool = True


# ---------------------------------------------------------------------------
# the peer-to-peer communicator and its collective algorithms
# ---------------------------------------------------------------------------


def _ceil_log2(p: int) -> int:
    return max(1, math.ceil(math.log2(p))) if p > 1 else 0


def _pow2ceil(p: int) -> int:
    return 1 << _ceil_log2(p)


def _split_slices(extent: int, parts: int, axis: int, ndim: int) -> list[tuple]:
    """``np.array_split`` boundaries along ``axis`` as index tuples."""
    sizes = [extent // parts + (1 if i < extent % parts else 0)
             for i in range(parts)]
    out = []
    start = 0
    for s in sizes:
        idx: list[slice] = [slice(None)] * ndim
        idx[axis] = slice(start, start + s)
        out.append(tuple(idx))
        start += s
    return out


class ProcessComm:
    """Per-rank communicator over the peer-to-peer transport.

    Collectives are matched across ranks by a per-rank operation
    counter carried in every message tag, so programs must be *loosely
    synchronous* (see the module docstring); a diverged sequence fails
    with :class:`CollectiveTimeoutError` rather than deadlocking.
    """

    def __init__(
        self,
        rank: int,
        size: int,
        channel: Transport,
        config: CommConfig | None = None,
        board: object | None = None,
    ) -> None:
        self.rank = rank
        self.size = size
        self._t = channel
        self.config = config or CommConfig()
        self.trace = CommTrace()
        #: caller-set phase label stamped on every CollectiveRecord
        #: and flight event (same vocabulary as the simulator's ledger
        #: phases).
        self.phase = ""
        self._op_id = 0
        #: live sweep-progress dict published via note_progress() and
        #: shipped in telemetry heartbeats.
        self._progress: dict[str, object] = {}
        #: the rank's one recorder (repro.observability.telemetry): a
        #: bounded ring of structured events and spans plus the metrics
        #: registry, gathered by run_spmd and merged into causal
        #: postmortems on failure.  None only when CommConfig.flight is
        #: off, in which case every recording boundary pays one
        #: `is None` test.
        self.flight = None
        if self.config.flight:
            self.flight = FlightRecorder(rank)
            channel.flight = self.flight
        #: lazily created single-thread executor for CommConfig.overlap
        #: receive prefetching (None until the first overlapped
        #: collective, so non-overlap runs never spawn a thread).
        self._prefetch_pool = None
        plan = self.config.fault_plan
        self._inj = (
            FaultInjector(plan, rank)
            if plan is not None and plan.for_rank(rank)
            else None
        )
        channel.injector = self._inj
        #: tier-2 verifier (repro.analysis.verify.runtime), imported
        #: lazily: that package's parent imports the distributed
        #: drivers, which import this module — a module-scope import
        #: here would be circular.  At verify-activation time both
        #: sides are fully initialized.
        self._vrt = None
        self._vseq: dict[tuple[int, ...], int] = {}
        if self.config.verify:
            from repro.analysis.verify import runtime as _vrt

            self._vrt = _vrt
            # The shm-lifecycle sanitizer only makes sense on backends
            # with a pooled-segment wire; non-shm transports (tcp) keep
            # signature matching and deadlock detection and skip the
            # lifecycle checks.
            if channel.uses_shm_pool:
                channel.sanitizer = _vrt.ShmSanitizer(rank)
            if board is not None and size > 1:
                channel.monitor = _vrt.WaitMonitor(board, rank, size)
        #: tier-2 transport occupancy guard (SPMD223), imported lazily
        #: like the verifier; the transport keeps it and pays a single
        #: `is None` test per boundary when config.race_detect is off.
        if self.config.race_detect:
            from repro.analysis.verify.races import TransportGuard

            channel.race_guard = TransportGuard(rank)
        #: elastic recovery manager (repro.distributed.recovery),
        #: imported lazily like the verifier; None unless
        #: CommConfig.recovery asks for respawn on a >1 world.
        self.recovery_mgr = None
        if self.config.recovery == "respawn" and size > 1:
            from repro.distributed.recovery import RecoveryManager

            self.recovery_mgr = RecoveryManager(self)

    # -- plumbing -----------------------------------------------------------

    def _guard_numerics(self, op: str, result: object) -> None:
        """Optional NaN/Inf screen on a collective's result."""
        if not self.config.check_numerics:
            return
        arrays: list[np.ndarray]
        if isinstance(result, np.ndarray):
            arrays = [result]
        elif isinstance(result, (list, tuple)):
            arrays = [a for a in result if isinstance(a, np.ndarray)]
        else:
            return
        for a in arrays:
            if a.dtype.kind in "fc" and not np.all(np.isfinite(a)):
                fr = self.flight
                if fr is not None:
                    fr.record(
                        "guard", self._op_id, self.phase,
                        f"non-finite in {op}",
                    )
                raise NumericalFaultError(
                    f"rank {self.rank}: non-finite values in {op} result "
                    f"(collective #{self._op_id}, phase {self.phase!r})",
                    rank=self.rank,
                    phase=self.phase,
                    op=op,
                )

    def _group(self, group: Sequence[int] | None) -> tuple[int, ...]:
        """The validated group: distinct ranks in ``0..size-1`` that
        include this rank."""
        group_t = (
            tuple(range(self.size)) if group is None else tuple(group)
        )
        if len(set(group_t)) != len(group_t) or not all(
            0 <= r < self.size for r in group_t
        ):
            raise ValueError(
                f"malformed collective group {group_t}: ranks must be "
                f"distinct and in 0..{self.size - 1}"
            )
        if self.rank not in group_t:
            raise ValueError(
                f"rank {self.rank} not in collective group {group_t}"
            )
        return group_t

    def _vsend(
        self, group: tuple[int, ...], dst_v: int, phase: str, payload: object
    ) -> None:
        self._t.send(group[dst_v], (self._op_id, phase), payload)

    def _vrecv(self, group: tuple[int, ...], src_v: int, phase: str) -> object:
        return self._vrecv_via(self._t.recv, group, src_v, phase)

    def _vrecv_prefetch(
        self, group: tuple[int, ...], src_v: int, phase: str
    ) -> object:
        """The overlap worker's receive: same retry/purge behavior,
        but blocked time lands in the hidden-wait histogram."""
        return self._vrecv_via(self._t.recv_prefetch, group, src_v, phase)

    def _vrecv_via(
        self,
        recv: Callable[..., object],
        group: tuple[int, ...],
        src_v: int,
        phase: str,
    ) -> object:
        try:
            return recv(
                group[src_v],
                (self._op_id, phase),
                timeout=self.config.collective_timeout,
            )
        except CollectiveTimeoutError:
            # The collective is dead; peers will not come back for the
            # in-flight segments, so release everything now rather than
            # relying on the launcher's sweep.
            self._t.purge()
            raise

    # -- tier-2 verification -------------------------------------------------

    def _call_site(self) -> str:
        """The first stack frame outside this module — where the user
        program issued the collective."""
        here = __file__
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_filename == here:
            frame = frame.f_back
        if frame is None:  # pragma: no cover - always has a caller
            return ""
        code = frame.f_code
        return f"{code.co_filename}:{frame.f_lineno} in {code.co_name}"

    def _verify_collective(
        self,
        kind: str,
        group: tuple[int, ...],
        *,
        op: str = "",
        root: int = -1,
        axis: int = -1,
        split_axis: int = -1,
        block: object = None,
    ) -> None:
        """One matching round of the tier-2 verifier.

        Every group member submits its signature for this communicator
        sequence number to the group head over the counter-neutral
        control channel; the head cross-checks the round and replies a
        verdict.  Runs *before* the payload collective, so a
        mismatched schedule (wrong root, diverged kind, incompatible
        shapes) raises :class:`CollectiveMismatchError` on every
        member instead of corrupting data or stalling to the timeout.
        """
        vrt = self._vrt
        if vrt is None or len(group) < 2:
            return
        vseq = self._vseq.get(group, 0) + 1
        self._vseq[group] = vseq
        dtype, shape = "", ()
        if isinstance(block, np.ndarray):
            dtype, shape = str(block.dtype), tuple(block.shape)
        sig = vrt.CollectiveSignature(
            kind=kind,
            seq=vseq,
            op=op,
            root=root,
            axis=axis,
            split_axis=split_axis,
            dtype=dtype,
            shape=shape,
            call_site=self._call_site(),
        )
        head = group[0]
        sig_tag = ("vfy", group, vseq)
        verdict_tag = ("vok", group, vseq)
        timeout = self.config.collective_timeout
        if self.rank != head:
            # Sanctioned escapes below: the verifier *owns* the
            # vfy/vok control namespace SPMD124 protects.
            self._t.ctrl_send(head, sig_tag, (self.rank, sig))  # spmdlint: ignore[SPMD124]
            try:
                verdict = self._t.ctrl_recv(  # spmdlint: ignore[SPMD124]
                    head, verdict_tag, timeout=timeout
                )
            except CollectiveTimeoutError:
                # The head died or diverged mid-round; it is not
                # coming back for in-flight segments either.
                self._t.purge()
                raise
        else:
            sigs = {self.rank: sig}
            missing: list[int] = []
            for r in group[1:]:
                try:
                    peer_rank, peer_sig = self._t.ctrl_recv(  # spmdlint: ignore[SPMD124]
                        r, sig_tag, timeout=timeout
                    )
                    sigs[peer_rank] = peer_sig
                except CollectiveTimeoutError:
                    missing.append(r)
            if missing:
                verdict = (
                    "SPMD202",
                    vrt.summarize_mismatch(group, sigs, missing, timeout),
                )
            else:
                verdict = vrt.match_signatures(sigs)
            for r in group[1:]:
                if r not in missing:
                    self._t.ctrl_send(r, verdict_tag, verdict)  # spmdlint: ignore[SPMD124]
        if verdict is not None:
            rule_id, message = verdict
            # Peers are not coming back for in-flight segments.
            self._t.purge()
            raise vrt.CollectiveMismatchError(message, rule_id=rule_id)

    def verify_shutdown(self) -> None:
        """End-of-rank verify checks (no-op unless ``verify=True``)."""
        self._t.verify_shutdown()

    # -- point-to-point -----------------------------------------------------

    def send(self, dest: int, payload: object, tag: int = 0) -> None:
        """Send ``payload`` to global rank ``dest`` (non-blocking)."""
        self._t.send(dest, ("p2p", tag), payload)

    def recv(
        self, src: int, tag: int = 0, timeout: float | None = None
    ) -> object:
        """Receive the next ``tag``-ged message from global rank ``src``."""
        try:
            out = self._t.recv(src, ("p2p", tag), timeout=timeout)
        except CollectiveTimeoutError:
            self._t.purge()
            raise
        fr = self.flight
        if fr is not None:
            fr.record("p2p_recv", self._op_id, self.phase, src)
        return out

    # -- telemetry ----------------------------------------------------------

    def note_progress(self, **info: object) -> None:
        """Publish sweep progress (``iteration=``, ``total=``,
        ``residual=``, ``ranks=``, ...) to the flight recorder and the
        live telemetry channel.  Drivers call this at sweep/mode
        boundaries; it costs one dict update (plus one ring append
        when the recorder is armed) and touches nothing on the payload
        path."""
        self._progress.update(info)
        fr = self.flight
        if fr is not None:
            fr.record("sweep", self._op_id, self.phase, dict(info))

    def note_event(self, kind: str, detail: object = "") -> None:
        """Record a discrete runtime event (``recovery``, ...) in the
        flight recorder; timed steps are spans
        (``comm.flight.begin``/``end``).  No-op when the recorder is
        disarmed; ``detail`` must be picklable."""
        fr = self.flight
        if fr is not None:
            fr.record(kind, self._op_id, self.phase, detail)

    def telemetry_sample(self) -> dict:
        """One heartbeat for the out-of-band telemetry channel.

        Called from the pusher thread, so every read of main-thread
        state is tolerant of concurrent mutation (a torn sample is
        dropped; the next beat sees fresh state)."""
        try:
            progress = dict(self._progress)
        except RuntimeError:  # raced a note_progress update
            progress = {}
        sample = {
            "kind": "heartbeat",
            "rank": self.rank,
            "ts": time.time(),
            "op_id": self._op_id,
            "phase": self.phase,
            "progress": progress,
        }
        fr = self.flight
        if fr is not None:
            sample["flight_seq"] = fr.seq
            open_ev = fr.open_collective()
            if open_ev is not None:
                detail = open_ev[5]
                sample["blocked"] = {
                    "op": detail[0]
                    if isinstance(detail, tuple)
                    else str(detail),
                    "op_id": open_ev[3],
                    "seconds": round(fr.now() - open_ev[1], 3),
                }
            sample["metrics"] = fr.metrics.snapshot()
        return sample

    # -- collectives --------------------------------------------------------

    def _collective(
        self,
        kind: str,
        group: Sequence[int] | None,
        run: Callable[[tuple[int, ...]], tuple[object, str]],
        block: object = None,
        **signature: object,
    ) -> object:
        """The one path of every collective: ``run(group)`` executes
        the schedule and returns ``(result, algorithm name)``; the
        hooks around it fire in this order — group and root check; op
        counter, flight ``collective_begin`` and fault injector; verify
        round (on ``block`` and the ``op``/``root``/``axis``/``split_axis``
        ``signature``);
        counter snapshot; ``CommTrace`` record and flight
        ``collective_end`` (the begin/end pair is the collective's
        span); numerics guard."""
        group_t = self._group(group)
        if "root" in signature and signature["root"] not in group_t:
            raise ValueError(
                f"{kind} root {signature['root']} not in group {group_t}"
            )
        gsize = len(group_t)
        self._op_id += 1
        fr = self.flight
        if fr is not None:
            fr.op_id = self._op_id
            fr.record(
                "collective_begin", self._op_id, self.phase, (kind, gsize)
            )
        if self._inj is not None:
            self._inj.at_collective(self._op_id, self.phase)
        self._verify_collective(kind, group_t, block=block, **signature)
        before = self._t.counters()
        out, algorithm = run(group_t)
        delta = (a - b for a, b in zip(self._t.counters(), before))
        self.trace.add(
            CollectiveRecord(kind, algorithm, gsize, *delta, self.phase)
        )
        if fr is not None:
            fr.record(
                "collective_end", self._op_id, self.phase, (kind, gsize)
            )
        self._guard_numerics(kind, out)
        return out

    def allreduce(
        self, block: np.ndarray, group: Sequence[int] | None = None
    ) -> np.ndarray:
        """Sum over the group; every member receives the total."""
        block = np.asarray(block)
        return self._collective(
            "allreduce", group, lambda g: self._allreduce(block, g),
            block, op="sum",
        )

    def reduce_scatter(
        self,
        block: np.ndarray,
        axis: int = 0,
        group: Sequence[int] | None = None,
    ) -> np.ndarray:
        """Sum over the group, then scatter slabs along ``axis`` (the
        ``i``-th group member receives the ``i``-th slab)."""
        block = np.asarray(block)
        return self._collective(
            "reduce_scatter", group,
            lambda g: self._reduce_scatter(block, axis, g),
            block, op="sum", axis=axis,
        )

    def allgather(
        self,
        block: np.ndarray,
        axis: int = 0,
        group: Sequence[int] | None = None,
    ) -> np.ndarray:
        """Concatenate group members' blocks along ``axis``."""
        block = np.asarray(block)
        return self._collective(
            "allgather", group, lambda g: self._allgather(block, axis, g),
            block, axis=axis,
        )

    def alltoall(
        self,
        block: np.ndarray,
        split_axis: int,
        concat_axis: int,
        group: Sequence[int] | None = None,
    ) -> np.ndarray:
        """Personalized all-to-all: the ``j``-th group member receives
        every member's ``j``-th ``array_split`` slab along
        ``split_axis``, concatenated along ``concat_axis`` in group
        order."""
        block = np.asarray(block)
        return self._collective(
            "alltoall", group,
            lambda g: self._alltoall(block, split_axis, concat_axis, g),
            block, axis=concat_axis, split_axis=split_axis,
        )

    def bcast(
        self,
        block: np.ndarray | None,
        root: int,
        group: Sequence[int] | None = None,
    ) -> np.ndarray:
        """Broadcast ``root``'s block to the group (binomial tree)."""
        return self._collective(
            "bcast", group, lambda g: self._bcast(block, root, g),
            block, root=root,
        )

    def gather(
        self,
        block: np.ndarray,
        root: int,
        group: Sequence[int] | None = None,
    ) -> list[np.ndarray] | None:
        """Collect blocks at ``root`` (group order); others get None."""
        block = np.asarray(block)
        return self._collective(
            "gather", group, lambda g: self._gather(block, root, g),
            block, root=root,
        )

    def barrier(self, group: Sequence[int] | None = None) -> None:
        """Block until every group member reaches the barrier
        (dissemination algorithm, ``ceil(log2 p)`` rounds)."""
        self._collective("barrier", group, self._barrier)

    # -- algorithm building blocks -----------------------------------------

    def _bruck_allgather_items(
        self,
        group: tuple[int, ...],
        me: int,
        item: np.ndarray,
        phase: str,
    ) -> dict[int, np.ndarray]:
        """Recursive-doubling (Bruck) allgather of one item per rank.

        Works for any group size in ``ceil(log2 p)`` rounds; every rank
        sends exactly ``p - 1`` items in total.  Each rank's held set is
        a contiguous (mod ``p``) window starting at its own position.
        """
        g = len(group)
        have: dict[int, np.ndarray] = {me: item}
        held = 1
        r = 0
        while held < g:
            cnt = min(held, g - held)
            dst = (me - held) % g
            src = (me + held) % g
            self._vsend(
                group,
                dst,
                f"{phase}/bk{r}",
                {(me + i) % g: have[(me + i) % g] for i in range(cnt)},
            )
            got = self._vrecv(group, src, f"{phase}/bk{r}")
            have.update(got)
            held += cnt
            r += 1
        return have

    # -- CommConfig.overlap machinery ---------------------------------------
    #
    # The overlap worker and the main thread obey a strict one-in-flight
    # hand-off: while a prefetched receive is outstanding, the main
    # thread touches only NumPy buffers (accumulator adds, assembly
    # copies) and never the transport, and it joins the future before
    # issuing its next transport call.  The transport therefore always
    # has exactly one user at any instant — it needs no locks — and the
    # flight recorder is never written concurrently (the worker writes
    # only the transport-level wait/transfer histograms, which the main
    # thread leaves alone while a collective is open).

    def _overlap_pool(self) -> "ThreadPoolExecutor":
        pool = self._prefetch_pool
        if pool is None:
            from concurrent.futures import ThreadPoolExecutor

            pool = self._prefetch_pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix=f"overlap-r{self.rank}"
            )
        return pool

    def shutdown_overlap(self) -> None:
        """Stop the overlap worker if one was ever created.  Cheap: by
        construction every prefetch future has been drained, so the
        worker is idle and the join returns immediately."""
        pool = self._prefetch_pool
        if pool is not None:
            self._prefetch_pool = None
            pool.shutdown(wait=True)

    @staticmethod
    def _drain_future(fut: object) -> None:
        """Join a still-outstanding prefetch on an error path so no
        worker is left inside the transport, swallowing its outcome
        (the primary exception is already propagating)."""
        if fut is not None:
            try:
                fut.result()
            except BaseException:
                pass

    def _submit_prefetch(self, group, src_v, tag):
        """Submit a receive prefetch to the overlap worker."""
        return self._overlap_pool().submit(
            self._vrecv_prefetch, group, src_v, tag
        )

    def _pairwise_send(
        self,
        group: tuple[int, ...],
        me: int,
        parts: Sequence[np.ndarray],
        phase: str,
    ) -> None:
        """Post the sends of a pairwise exchange: every other rank ``j``
        gets this rank's ``j``-th part.  ``p - 1`` messages and
        ``n (p-1)/p`` words per rank — the ring reduce-scatter cost and
        the all-to-all cost."""
        for j in range(len(group)):
            if j != me:
                self._vsend(group, j, f"{phase}/pw", {me: parts[j]})

    def _pairwise_reduce_parts(
        self,
        group: tuple[int, ...],
        me: int,
        parts: Sequence[np.ndarray],
        phase: str,
    ) -> np.ndarray:
        """Pairwise-exchange reduce-scatter: rank ``j`` receives every
        rank's ``j``-th part and reduces them in group-rank order
        (bit-identical to a left-to-right sum)."""
        g = len(group)
        self._pairwise_send(group, me, parts, phase)
        if self.config.overlap and g > 1:
            return self._pairwise_reduce_overlap(group, me, parts, phase)
        acc: np.ndarray | None = None
        for j in range(g):
            if j == me:
                contrib = np.asarray(parts[me])
            else:
                contrib = self._vrecv(group, j, f"{phase}/pw")[j]
            if acc is None:
                acc = np.array(contrib, copy=True)
            else:
                acc += contrib
        assert acc is not None
        return acc

    def _pairwise_reduce_overlap(
        self,
        group: tuple[int, ...],
        me: int,
        parts: Sequence[np.ndarray],
        phase: str,
    ) -> np.ndarray:
        """The pipelined tail of :meth:`_pairwise_reduce_parts` (all
        sends already posted): identical receives in identical order,
        but each receive after the first is prefetched on the overlap
        worker while the main thread folds the previous contribution
        into the accumulator — the wire wait and copy-out of
        contribution ``j+1`` hide behind the ``acc += contrib_j``
        payload math.  Same adds in the same group-rank order, so the
        result is bit-identical to the serial loop."""
        g = len(group)
        tag = f"{phase}/pw"
        sources = [j for j in range(g) if j != me]
        fut = self._submit_prefetch(group, sources[0], tag)
        nxt = 1
        acc: np.ndarray | None = None
        try:
            for j in range(g):
                if j == me:
                    contrib = np.asarray(parts[me])
                else:
                    payload = fut.result()
                    fut = (
                        self._submit_prefetch(group, sources[nxt], tag)
                        if nxt < len(sources)
                        else None
                    )
                    nxt += 1
                    contrib = payload[j]
                if acc is None:
                    acc = np.array(contrib, copy=True)
                else:
                    acc += contrib
        except BaseException:
            if fut is not None and not fut.done():
                self._drain_future(fut)
            raise
        assert acc is not None
        return acc

    def _ring_allgather_overlap(
        self,
        group: tuple[int, ...],
        me: int,
        part: np.ndarray,
        phase: str,
        slices: Sequence[slice],
        out: np.ndarray,
    ) -> np.ndarray:
        """Ring allgather of reduced chunks assembled directly into
        ``out`` (chunk geometry is known to the caller), with the
        assembly copy overlapped: each step posts its forward send,
        prefetches the ring receive on the overlap worker, and writes
        the *previous* chunk into ``out`` while the receive blocks.
        Same sends, receives, and tags as
        :meth:`_ring_allgather_parts` plus the same total copy work as
        the ``np.concatenate`` it replaces — just scheduled under the
        wire wait."""
        g = len(group)
        right = (me + 1) % g
        left = (me - 1) % g
        prev_idx, prev = me, np.asarray(part)
        fut = None
        try:
            for s in range(g - 1):
                self._vsend(
                    group, right, f"{phase}/rg{s}", {prev_idx: prev}
                )
                fut = self._submit_prefetch(group, left, f"{phase}/rg{s}")
                out[slices[prev_idx]] = prev
                got = fut.result()
                fut = None
                ((prev_idx, prev),) = got.items()
        except BaseException:
            if fut is not None and not fut.done():
                self._drain_future(fut)
            raise
        out[slices[prev_idx]] = prev
        return out

    def _ring_allgather_parts(
        self,
        group: tuple[int, ...],
        me: int,
        part: np.ndarray,
        phase: str,
    ) -> dict[int, np.ndarray]:
        """Ring allgather: ``p - 1`` steps, each rank forwarding the
        chunk it received last round to its right neighbour."""
        g = len(group)
        have: dict[int, np.ndarray] = {me: np.asarray(part)}
        right = (me + 1) % g
        left = (me - 1) % g
        for s in range(g - 1):
            send_idx = (me - s) % g
            self._vsend(
                group, right, f"{phase}/rg{s}", {send_idx: have[send_idx]}
            )
            got = self._vrecv(group, left, f"{phase}/rg{s}")
            have.update(got)
        return have

    # -- collective implementations ----------------------------------------
    #
    # Each returns ``(result, algorithm name)`` for _collective's trace
    # record.

    def _allreduce(
        self, arr: np.ndarray, group: tuple[int, ...]
    ) -> tuple[np.ndarray, str]:
        g = len(group)
        if g == 1:
            return arr.copy(), "single"
        me = group.index(self.rank)
        flat = np.ascontiguousarray(arr).reshape(-1)
        n = flat.size
        limit = self.config.eager_max_words
        short = (
            n <= limit
            if limit is not None
            else select_allreduce_algorithm(float(n), g) == "short"
        )
        if short:
            # Bruck allgather of contributions, rank-order local sum.
            have = self._bruck_allgather_items(group, me, flat, "ar")
            acc = np.array(have[0], copy=True)
            for j in range(1, g):
                acc += have[j]
            return acc.reshape(arr.shape), "bruck-gather"

        # Long payloads: reduce-scatter the flat vector, allgather the
        # reduced chunks.  Chunking is elementwise-disjoint, so the
        # rank-order pairwise path reproduces the left-to-right sum.
        bounds = [s[0] for s in _split_slices(n, g, 0, 1)]
        mine = self._pairwise_reduce_parts(
            group, me, [flat[s] for s in bounds], "ar"
        )
        if self.config.overlap:
            # Assemble straight into the output while the ring
            # receives block: same sends/receives/tags as the serial
            # ring + concatenate, same bits out.
            out = np.empty(n, dtype=flat.dtype)
            self._ring_allgather_overlap(group, me, mine, "ar", bounds, out)
        else:
            have = self._ring_allgather_parts(group, me, mine, "ar")
            out = np.concatenate([have[j] for j in range(g)])
        return out.reshape(arr.shape), "pairwise-rs+ring-ag"

    def _reduce_scatter(
        self, arr: np.ndarray, axis: int, group: tuple[int, ...]
    ) -> tuple[np.ndarray, str]:
        g = len(group)
        if g == 1:
            return arr.copy(), "single"
        me = group.index(self.rank)
        slices = _split_slices(arr.shape[axis], g, axis, arr.ndim)
        parts = [_contig(arr[s]) for s in slices]
        out = self._pairwise_reduce_parts(group, me, parts, "rs")
        return np.ascontiguousarray(out), "pairwise"

    def _alltoall(
        self,
        arr: np.ndarray,
        split_axis: int,
        concat_axis: int,
        group: tuple[int, ...],
    ) -> tuple[np.ndarray, str]:
        g = len(group)
        if g == 1:
            return arr.copy(), "single"
        me = group.index(self.rank)
        # Slab views: the transport packs what it sends, and the own
        # slab goes straight into the concatenation.
        slices = _split_slices(arr.shape[split_axis], g, split_axis, arr.ndim)
        parts = [arr[s] for s in slices]
        self._pairwise_send(group, me, parts, "a2a")
        got = [
            parts[me] if j == me else self._vrecv(group, j, "a2a/pw")[j]
            for j in range(g)
        ]
        return np.concatenate(got, axis=concat_axis), "pairwise"

    def _allgather(
        self, arr: np.ndarray, axis: int, group: tuple[int, ...]
    ) -> tuple[np.ndarray, str]:
        g = len(group)
        if g == 1:
            return arr.copy(), "single"
        me = group.index(self.rank)
        have = self._ring_allgather_parts(group, me, _contig(arr), "ag")
        cat = np.concatenate([have[j] for j in range(g)], axis=axis)
        return cat, "ring"

    def _bcast(
        self,
        block: np.ndarray | None,
        root: int,
        group: tuple[int, ...],
    ) -> tuple[np.ndarray, str]:
        g = len(group)
        me = group.index(self.rank)
        vroot = group.index(root)
        if g == 1:
            return np.asarray(block).copy(), "binomial"
        rel = (me - vroot) % g
        if rel == 0:
            data = np.asarray(block)
            mask = _pow2ceil(g) >> 1
        else:
            lsb = rel & -rel
            parent = (rel - lsb + vroot) % g
            data = self._vrecv(group, parent, "bc")
            mask = lsb >> 1
        while mask >= 1:
            child_rel = rel + mask
            if child_rel < g:
                self._vsend(group, (child_rel + vroot) % g, "bc", data)
            mask >>= 1
        return np.asarray(data), "binomial"

    def _gather(
        self,
        arr: np.ndarray,
        root: int,
        group: tuple[int, ...],
    ) -> tuple[list[np.ndarray] | None, str]:
        g = len(group)
        me = group.index(self.rank)
        vroot = group.index(root)
        if g == 1:
            return [arr.copy()], "binomial"
        rel = (me - vroot) % g
        have: dict[int, np.ndarray] = {me: _contig(arr)}
        mask = 1
        while mask < g:
            if rel & mask:
                parent_rel = rel - mask
                self._vsend(group, (parent_rel + vroot) % g, "ga", have)
                have = {}
                break
            src_rel = rel + mask
            if src_rel < g:
                got = self._vrecv(group, (src_rel + vroot) % g, "ga")
                have.update(got)
            mask <<= 1
        out = [have[j] for j in range(g)] if me == vroot else None
        return out, "binomial"

    def _barrier(self, group: tuple[int, ...]) -> tuple[None, str]:
        g = len(group)
        me = group.index(self.rank)
        dist = 1
        r = 0
        while dist < g:
            self._vsend(group, (me + dist) % g, f"br{r}", None)
            self._vrecv(group, (me - dist) % g, f"br{r}")
            dist <<= 1
            r += 1
        return None, "dissemination"


# ---------------------------------------------------------------------------
# SPMD launcher
# ---------------------------------------------------------------------------


def _flight_snapshot(comm) -> object | None:
    """Snapshot a comm's flight ring, with the transport's lifetime
    byte/message counters stamped as gauges (None when disarmed)."""
    fr = comm.flight
    if fr is None:
        return None
    for name in (
        "sent_messages",
        "sent_bytes",
        "recv_messages",
        "recv_bytes",
        "shm_messages",
    ):
        fr.metrics.gauge(name, float(getattr(comm._t, name)))
    return fr.snapshot()


def _failure_report(exc: BaseException, comm) -> dict:
    """What a dying rank ships home: error, traceback, trace tail and
    flight-recorder ring, whose ``open_span`` names what the rank was
    doing (phase + wall-clock start) when it died."""
    report = {
        "error": repr(exc),
        "traceback": traceback_mod.format_exc(),
        "trace_tail": comm.trace.tail(),
        # A closed-peer abort is a casualty of some other rank's
        # death, not a primary failure: the launcher demotes it to the
        # aborted set when a primary failure explains it.
        "secondary": isinstance(exc, TransportClosedError),
    }
    fr = comm.flight
    if fr is not None:
        fr.record("error", comm._op_id, comm.phase, repr(exc)[:200])
        report["flight"] = _flight_snapshot(comm)
    return report


def _rank_worker(
    fn_bytes: bytes,
    rank: int,
    size: int,
    mesh: list[dict[int, socket.socket]],
    result_queue: "mp.Queue",
    run_token: str,
    config: CommConfig,
    args: tuple,
    board: object | None = None,
    backend: str = "shm",
    heartbeat: float | None = None,
    cpu: int | None = None,
) -> None:
    """One rank's process: transport, comm, program, report.

    ``mesh[r]`` maps each peer to rank ``r``'s end of their stream
    (:func:`~repro.vmpi.transport.connect_mesh`).  The fork copied every
    end into this process; all but this rank's own are closed first,
    since a peer's exit reads as EOF only once no other process holds
    its end.  ``heartbeat`` is the seconds between telemetry samples
    pushed to the launcher; ``None`` pushes none.  ``cpu`` is the CPU
    this rank is bound to; ``None`` leaves it unbound.
    """
    if cpu is not None:
        os.sched_setaffinity(0, (cpu,))
    for r, ends in enumerate(mesh):
        if r != rank:
            for sock in ends.values():
                sock.close()
    peers = mesh[rank]
    channel: Transport
    if backend == "tcp":
        channel = TcpSocketTransport(rank, size, peers, config)
    else:
        channel = ShmPoolTransport(rank, size, peers, run_token, config)
    comm = ProcessComm(rank, size, channel, config, board=board)
    pusher = None
    if heartbeat is not None:
        pusher = TelemetryPusher(
            comm.telemetry_sample,
            lambda sample, _r=rank: result_queue.put(
                (_r, "telemetry", sample)
            ),
            heartbeat,
        )
        pusher.start()

    def post(status: str, payload: object) -> None:
        """Post a terminal status, after the pusher's last heartbeat
        (where the rank ended) is already in the queue."""
        if pusher is not None:
            pusher.stop()
        result_queue.put((rank, status, payload))

    try:
        fn = pickle.loads(fn_bytes)
        out = fn(comm, *args)
        # Verify mode: a leaked shm segment turns the rank's result
        # into an error *before* it is posted (SPMD213).
        comm.verify_shutdown()
        # From here a peer still waiting on this rank has diverged
        # rather than lost it.
        channel.finish()
        # Ship the flight ring before the completion signal so an
        # early finisher's ring is available for a postmortem even
        # when *other* ranks later hang or die.
        ring = _flight_snapshot(comm)
        if ring is not None:
            result_queue.put((rank, "flight", ring))
        post("ok", out)
    except InjectedRankCrash as exc:
        post("crashed", _failure_report(exc, comm))
        if exc.hard:
            # Simulated node loss: skip channel.close() so any pooled
            # shm segments are orphaned — the launcher's sweep must
            # reclaim them.  The report must be out before os._exit
            # kills the queue's feeder thread, so flush it first.
            result_queue.close()
            result_queue.join_thread()
            os._exit(EXIT_INJECTED_CRASH)
    except TransportClosedError as exc:
        # A peer died.  With elastic recovery armed, this survivor
        # posts its snapshot and the replica it holds instead of an
        # error, for the orchestrator (recovery.run_elastic) to
        # continue the run from.  Either way it exits, and its EOF
        # wakes any peer still waiting on it.
        mgr = comm.recovery_mgr
        if mgr is None:
            post("error", _failure_report(exc, comm))
        else:
            post("recovery", mgr.on_failure(exc))
    except Exception as exc:
        post("error", _failure_report(exc, comm))
    finally:
        comm.shutdown_overlap()
        try:
            channel.close()
        except Exception:  # pragma: no cover - cleanup best-effort
            pass


def _sweep_shm(run_token: str) -> None:
    """Unlink any shared-memory segments a crashed rank orphaned."""
    if _SHM_DIR is None:  # pragma: no cover - no segments made
        return
    for path in glob.glob(os.path.join(_SHM_DIR, f"mpx{run_token}*")):
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - raced with receiver
            pass


def run_spmd(
    fn: Callable[..., object],
    size: int,
    *args: object,
    timeout: float = 120.0,
    transport: str = "shm",
    config: CommConfig | None = None,
    collective_timeout: float | None = None,
    profile_out: dict[int, object] | None = None,
    monitor: object | None = None,
) -> list[object]:
    """Run ``fn(comm, *args)`` on ``size`` real processes, one per rank.

    ``fn`` must be picklable (a module-level function).  Returns each
    rank's return value in rank order; raises
    :class:`RankFailureError` (a ``RuntimeError``) if any rank failed,
    carrying each failed rank's remote traceback and collective-trace
    tail plus the succeeded/aborted rank sets.

    Failure detection does not wait out ``timeout``: a rank that
    raises or dies closes its sockets, so its peers fail in-band and
    report at once, and the launcher returns as soon as every rank has
    reported or exited.  Its liveness poll (every ``_LIVENESS_POLL``
    seconds) notices ranks that died without posting a result; ranks
    still blocked ``_ABORT_GRACE`` seconds after a failure are
    terminated.  Shared-memory segments are swept on every exit
    path.  Every argument is validated before anything is spawned or
    reported to ``monitor``, so a rejected call has no side effects.

    Every rank pair's stream is connected before the fork
    (:func:`~repro.vmpi.transport.connect_mesh`), so the ranks start
    with their communicator wired, as under an MPI launcher.  When
    this process may run on at least ``size`` CPUs, rank ``r`` is
    bound to the ``r``-th of them, as an MPI launcher binds ranks to
    cores; with more ranks than CPUs none is bound.

    Parameters
    ----------
    timeout:
        Seconds the launcher waits for every rank to report; must be
        positive.
    transport:
        ``"shm"`` (default) hands every rank a
        :class:`ProcessComm` over the pooled shared-memory
        point-to-point layer (AF_UNIX socketpairs); ``"tcp"`` hands out
        the same communicator over one loopback TCP connection per
        rank pair.
    config:
        :class:`CommConfig` for timeouts, the shared-memory threshold,
        the short/long allreduce threshold, fault injection
        (``fault_plan``), numerics guards, recovery, and the
        observability switches.
    collective_timeout:
        Shorthand overriding ``config.collective_timeout``; either one
        must be positive.
    profile_out:
        With ``config.flight`` (the default), filled with each rank's
        :class:`~repro.observability.telemetry.FlightRing` — on
        success all ranks, on failure whatever rings reached the
        launcher (also attached to the :class:`RankFailureError`).
        :class:`~repro.observability.profile.RunProfile` views them.
    monitor:
        A :class:`repro.observability.telemetry.TelemetryMonitor` (or
        anything with its ``interval`` and its ``on_start``/
        ``on_sample``/``on_done``/``on_postmortem`` surface).  Every
        rank pushes a heartbeat each ``monitor.interval`` seconds, and
        the launcher's drain loop routes them to the monitor — the live
        feed behind ``repro top``.  Without a monitor no rank pushes
        any.
    """
    if size < 1:
        raise ValueError("size must be positive")
    if transport not in TRANSPORTS:
        raise ValueError(
            f"unknown transport {transport!r} "
            f"(expected one of {sorted(TRANSPORTS)})"
        )
    cfg = config or CommConfig()
    if collective_timeout is not None:
        cfg = replace(cfg, collective_timeout=collective_timeout)
    if cfg.recovery not in ("restart", "respawn"):
        raise ValueError(
            f"unknown recovery policy {cfg.recovery!r} "
            f"(expected 'restart' or 'respawn')"
        )
    for name, value in (
        ("collective_timeout", cfg.collective_timeout),
        ("timeout", timeout),
    ):
        if not value > 0:
            raise ValueError(f"{name} must be positive, got {value!r}")
    fn_bytes = pickle.dumps(fn)  # an unpicklable program fails here
    heartbeat = None
    if monitor is not None:
        heartbeat = monitor.interval
        monitor.on_start(size, transport)
    ctx = mp.get_context("spawn" if mp.get_start_method() == "spawn" else "fork")
    result_queue: mp.Queue = ctx.Queue()
    run_token = uuid.uuid4().hex[:8]

    mesh = connect_mesh(size, transport)
    # Verify mode: a lock-free shared board of (waiting_on, op_id,
    # stamp) triples, one per rank, feeding the wait-for-graph
    # deadlock detector.  Each rank writes only its own slots.
    board = (
        ctx.Array("q", 3 * size, lock=False)
        if cfg.verify and size > 1
        else None
    )
    if board is not None:
        for r in range(size):
            board[3 * r] = -1  # idle, not "waiting on rank 0"
    # Unbound, a socket send wakes its receiver on the sender's CPU, so
    # two communicating ranks share one CPU at half speed each, for
    # seconds at a time.
    has_affinity = hasattr(os, "sched_getaffinity")  # Linux
    cpus = sorted(os.sched_getaffinity(0)) if has_affinity else []
    workers = [
        ctx.Process(
            target=_rank_worker,
            args=(
                fn_bytes,
                rank,
                size,
                mesh,
                result_queue,
                run_token,
                cfg,
                args,
                board,
                transport,
                heartbeat,
                cpus[rank] if size <= len(cpus) else None,
            ),
        )
        for rank in range(size)
    ]
    try:
        for w in workers:
            w.start()
    finally:
        # The workers own the socket ends now: drop the launcher's
        # copies so a rank's exit is EOF to its peers.
        for ends in mesh:
            for sock in ends.values():
                sock.close()

    results: dict[int, object] = {}
    errors: dict[int, dict] = {}
    recoveries: dict[int, dict] = {}  # rank -> recovery report
    flights: dict[int, object] = {}  # rank -> FlightRing
    hard_crashed: set[int] = set()  # ranks whose process is dying
    dead: dict[int, int] = {}  # rank -> exitcode, no result posted
    timed_out = False
    abort_deadline: float | None = None

    def exited() -> dict[int, int]:
        """``rank -> exitcode`` of unreported ranks whose process has
        exited."""
        return {
            r: code
            for r in range(size)
            if r not in results and r not in errors and r not in recoveries
            and (code := workers[r].exitcode) is not None
        }

    def take(rank: int, status: str, payload: object) -> None:
        nonlocal abort_deadline
        if status == "flight":
            # Precedes the rank's "ok"; not a completion signal.
            flights[rank] = payload
            return
        if status == "telemetry":
            # Out-of-band heartbeat; never a completion signal.
            if monitor is not None:
                monitor.on_sample(rank, payload)
            return
        if status == "ok":
            results[rank] = payload
        elif status == "recovery":
            # A survivor posted its snapshot and replica: terminal for
            # the rank, but the run as a whole has failed.
            recoveries[rank] = payload
        else:  # "error" or "crashed"
            errors[rank] = payload
            if status == "crashed":
                # The rank's process is about to os._exit (or already
                # has): a hard crash for the postmortem.
                hard_crashed.add(rank)
        if status != "ok" and abort_deadline is None:
            abort_deadline = time.monotonic() + _ABORT_GRACE
        if monitor is not None:
            monitor.on_done(rank, status)

    try:
        deadline = time.monotonic() + timeout
        while len(results) + len(errors) + len(recoveries) < size:
            now = time.monotonic()
            if now >= deadline:
                timed_out = True
                break
            if abort_deadline is not None and now >= abort_deadline:
                break
            if len(exited()) == size - len(results) - len(errors) - len(
                recoveries
            ):
                # Every rank reported or exited: nothing more can come
                # but results that raced their process's exit.
                while True:
                    try:
                        take(*result_queue.get_nowait())
                    except queue_mod.Empty:
                        break
                break
            try:
                take(
                    *result_queue.get(
                        timeout=min(_LIVENESS_POLL, deadline - now)
                    )
                )
            except queue_mod.Empty:
                # Liveness check: a rank that died without posting a
                # result will never answer — don't wait out `timeout`.
                if exited() or errors or recoveries:
                    # Brief drain window before aborting: in-flight
                    # results (peers failing in-band on the dead rank)
                    # are still collected.
                    if abort_deadline is None:
                        abort_deadline = time.monotonic() + _ABORT_GRACE
                else:  # the "death" was a clean exit racing its result
                    abort_deadline = None
        dead = exited()
    finally:
        failure = (
            bool(errors) or bool(dead) or bool(recoveries) or timed_out
        )
        if failure:
            for w in workers:
                if w.is_alive():
                    w.terminate()
        for w in workers:
            w.join(timeout=10)
            if w.is_alive():  # pragma: no cover - hang safety
                w.terminate()
                w.join(timeout=10)
        if transport == "shm":
            _sweep_shm(run_token)
    if errors or dead or recoveries or timed_out:
        # A vanished peer is detected in-band (TransportClosedError),
        # so the victim's neighbours self-report before the launcher's
        # liveness poll fires.  They are casualties, not causes: fold
        # them into the aborted set (with their rings) whenever a
        # primary failure explains them.
        secondary = [
            r for r, rep in errors.items() if rep.get("secondary")
        ]
        if (set(errors) - set(secondary)) | set(dead) | set(recoveries):
            for r in secondary:
                rep = errors.pop(r)
                if rep.get("flight") is not None:
                    flights[r] = rep["flight"]
        failed = sorted(set(errors) | set(dead))
        succeeded = sorted(results)
        aborted = sorted(
            r
            for r in range(size)
            if r not in results
            and r not in errors
            and r not in dead
            and r not in recoveries
        )
        # Failed ranks embed their ring in the failure/recovery report,
        # finished ranks shipped theirs ahead of their result: fold
        # them into one set so the error carries every ring that
        # reached the launcher.
        for r, rep in (*errors.items(), *recoveries.items()):
            if rep.get("flight") is not None:
                flights[r] = rep["flight"]
        if profile_out is not None:
            profile_out.update(flights)
        postmortem = None
        if flights:
            postmortem = build_postmortem(
                flights,
                completed=set(results),
                crashed=set(hard_crashed) | set(dead),
            )
            if monitor is not None:
                monitor.on_postmortem(
                    postmortem.verdict, postmortem.diverging
                )
        lines = []
        for r in failed:
            if r in errors:
                rep = errors[r]
                lines.append(f"rank {r} failed: {rep['error']}")
                ring = flights.get(r)
                open_span = ring.open_span if ring is not None else None
                if open_span is not None:
                    lines.append(
                        f"rank {r} last open span: "
                        f"'{open_span['name']}' "
                        f"({open_span['category']}"
                        + (
                            f", phase {open_span['phase']}"
                            if open_span["phase"]
                            else ""
                        )
                        + f") started t+{open_span['start']:.3f}s "
                        f"(unix {open_span['wall_start']:.3f}), open "
                        f"{open_span['open_for']:.3f}s at failure"
                    )
                tail = rep.get("trace_tail") or []
                if tail:
                    lines.append(f"rank {r} last collectives:")
                    lines.extend(f"  {t}" for t in tail)
                if ring is not None and ring.events:
                    ftail = ring.tail()
                    lines.append(
                        f"rank {r} flight recorder "
                        f"(last {len(ftail)} of {ring.seq} events):"
                    )
                    lines.extend(f"  {t}" for t in ftail)
                tb = rep.get("traceback", "")
                if tb:
                    lines.append(f"rank {r} remote traceback:")
                    lines.extend(
                        f"  {t}" for t in tb.rstrip().splitlines()
                    )
            else:
                lines.append(
                    f"rank {r} died without posting a result "
                    f"(exitcode {dead[r]})"
                )
        for r, rep in sorted(recoveries.items()):
            lines.append(
                f"rank {r} survived with its snapshot of iteration "
                f"{rep['iteration']}"
            )
        if postmortem is not None:
            lines.extend(postmortem.lines())
        if timed_out and not failed:
            head = (
                f"SPMD run timed out after {timeout:.0f}s waiting for "
                f"{size - len(results)} of {size} ranks"
            )
        else:
            head = (
                f"SPMD run failed: ranks {failed} failed, "
                f"{succeeded} succeeded"
                + (f", {aborted} aborted" if aborted else "")
                + (
                    f", {sorted(recoveries)} recovered state"
                    if recoveries
                    else ""
                )
            )
        raise RankFailureError(
            "\n".join([head] + lines),
            failed=failed,
            succeeded=succeeded,
            aborted=aborted,
            exitcodes=dead,
            recovery_reports=recoveries,
            flight_records=flights,
            postmortem=postmortem,
        )
    if profile_out is not None:
        profile_out.update(flights)
    return [results[r] for r in range(size)]
