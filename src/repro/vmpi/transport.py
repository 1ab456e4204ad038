"""Pluggable point-to-point transports for the process-parallel layer.

:class:`~repro.vmpi.mp_comm.ProcessComm` runs its collective
algorithms over an abstract :class:`Transport`: tagged, non-blocking
``send`` / blocking ``recv`` point-to-point messaging plus the
lifecycle, fault-injection, verification, and profiling hooks the rest
of the stack taps.  Both backends speak one wire: length-prefixed
pickled frames over one stream socket per peer (``selectors``,
non-blocking with buffered writes so symmetric exchange patterns
cannot deadlock on full socket buffers).  They differ only in how the
sockets are made and where large payloads travel:

* :class:`ShmPoolTransport` — the fast single-host default.
  :func:`~repro.vmpi.mp_comm.run_spmd` creates one AF_UNIX
  ``socketpair`` per rank pair before it forks.  NumPy payloads of at
  least ``CommConfig.shm_min_bytes`` travel through *pooled*
  ``multiprocessing.shared_memory`` segments without pickling: only the
  segment handle and the receiver's free credit ride the stream.
* :class:`TcpSocketTransport` — per-peer persistent TCP connections.
  Ranks find each other through a tiny rendezvous server
  (:func:`serve_rendezvous`) on a loopback ``host:port`` that
  :func:`~repro.vmpi.mp_comm.run_spmd` serves and hands to every rank.

Small messages on a stream, large payloads through shared memory: the
eager/rendezvous split the MPI libraries under TuckerMPI use inside a
node.

The contract that makes backends interchangeable:

* **Counters** (``sent_words``/``sent_bytes``/... ) account *payload*
  array words/bytes, not wire encodings, so
  :class:`~repro.vmpi.trace.CollectiveRecord` traces are identical
  across backends (``shm_messages`` is the one backend-specific
  column: it counts zero-copy segment rides and is 0 on TCP).
* **Fault hooks** (:class:`~repro.vmpi.faults.FaultInjector`) fire at
  the transport boundary in :meth:`Transport.send`, so seeded
  delay/drop/bitflip plans corrupt shm segments and TCP frames alike.
* **Failures are in-band** on both wires: a peer that exits or closes
  is EOF on its stream, so a wait on it raises
  :class:`TransportClosedError` (a :class:`CollectiveTimeoutError`
  subclass, also raised for a frame torn mid-write) at once — or a
  plain :class:`CollectiveTimeoutError` if the peer's program had
  returned, since then the call sequences diverged.  Retry-with-backoff,
  purge-on-timeout, and the launcher's failure reports work unchanged.
* **Control traffic** (:meth:`Transport.ctrl_send` /
  :meth:`Transport.ctrl_recv`, used by the tier-2 verifier), revoke
  notices, and the shm free credits ride the same stream but are
  counter-neutral, so verified runs stay trace-identical to plain runs
  on every backend.
"""

from __future__ import annotations

import os
import pickle
import random
import selectors
import socket
import struct
import time
from abc import ABC, abstractmethod
from collections import deque

import numpy as np

try:  # pragma: no cover - always present on CPython >= 3.8
    from multiprocessing import shared_memory as _shm_mod
except ImportError:  # pragma: no cover - platform without shm
    _shm_mod = None

__all__ = [
    "CollectiveTimeoutError",
    "ShmPoolTransport",
    "TcpSocketTransport",
    "Transport",
    "TransportClosedError",
    "WorldRevokedError",
    "open_rendezvous_listener",
    "serve_rendezvous",
]


class CollectiveTimeoutError(RuntimeError):
    """A communicator wait exceeded ``CommConfig.collective_timeout``.

    Raised instead of hanging when collective call sequences diverge
    across ranks (mismatched operations, different call counts) or a
    peer died.
    """


class TransportClosedError(CollectiveTimeoutError):
    """A peer's stream broke or closed mid-conversation.

    Subclasses :class:`CollectiveTimeoutError` so every existing
    timeout path (purge, retry-with-backoff, launcher abort) treats a
    vanished peer exactly like a diverged one — just without waiting
    out the full collective timeout.
    """


class WorldRevokedError(RuntimeError):
    """The communicator was revoked after a peer failure.

    ULFM-style: once a surviving rank that saw a
    :class:`TransportClosedError` decides a rank is dead, it posts a
    revoke notice on :data:`_REVOKE_TAG`; every blocked ``recv`` on the
    receiving transport then raises this instead of waiting out its
    timeout.
    Deliberately *not* a :class:`CollectiveTimeoutError` subclass: the
    retry-with-backoff path must not swallow a revoke (the world is
    not coming back), it must surface to the recovery handler.
    """

    def __init__(self, message: str, failed: tuple[int, ...] = ()) -> None:
        super().__init__(message)
        #: best-effort hint of the dead ranks carried by the notice.
        self.failed_hint = tuple(failed)


# ---------------------------------------------------------------------------
# payload helpers (shared by all backends)
# ---------------------------------------------------------------------------


def _contig(a: np.ndarray) -> np.ndarray:
    """C-contiguous view/copy that, unlike ``np.ascontiguousarray``,
    preserves 0-d shapes."""
    a = np.asarray(a)
    return a if a.flags["C_CONTIGUOUS"] else np.ascontiguousarray(a)


def _payload_arrays(payload: object) -> list[tuple[object, np.ndarray]] | None:
    """View a payload as keyed arrays, or ``None`` if it is not one.

    Collectives move either a bare ``ndarray`` or a ``dict`` mapping
    group positions to ``ndarray`` chunks; anything else (tags, tokens,
    user objects) takes the pickle path.
    """
    if isinstance(payload, np.ndarray):
        return [(None, payload)]
    if isinstance(payload, dict) and payload and all(
        isinstance(v, np.ndarray) for v in payload.values()
    ):
        return list(payload.items())
    return None


def _unregister_shm(shm) -> None:
    """Detach ``shm`` from this process's resource tracker.

    The receiving rank unlinks every segment after copying it out; the
    creator must forget it or the (fork-shared) resource tracker would
    warn about, and double-unlink, segments at interpreter shutdown.
    """
    try:  # pragma: no cover - tracker internals vary across versions
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


def _unlink_segment(shm) -> None:
    """Remove a segment's backing file without touching the resource
    tracker.

    ``SharedMemory.unlink()`` also unregisters the name, but every
    process already unregistered at create/attach time (fork shares one
    tracker, so unmatched unregisters make it spew KeyErrors)."""
    try:
        os.unlink(os.path.join("/dev/shm", shm._name.lstrip("/")))
    except OSError:  # pragma: no cover - already swept / non-Linux
        pass


def _align8(n: int) -> int:
    return (n + 7) & ~7


def _segment_class(nbytes: int) -> int:
    """Pooled segments come in power-of-two size classes (>= 256 B) so
    a freed segment can be reused for any later payload of its class."""
    size = 256
    while size < nbytes:
        size <<= 1
    return size


# Transport-internal tag on which a receiver returns a drained segment
# to its owner for reuse.  Credit traffic, not data traffic: it is
# excluded from the message counters the cost formulas are checked
# against (like the rendezvous control messages of a real MPI).
_FREE_TAG = ("shmfree",)

# Revoke notices (elastic recovery).  Counter-neutral like the free
# credits: a revoked run must leave the CollectiveRecord traces of the
# work done so far identical to an unfailed run's prefix.  The body is
# a sequence of suspected-dead ranks, posted by a surviving rank that
# saw a peer's stream close (recovery's revoke-and-agree round).
_REVOKE_TAG = ("revoke",)

# Sent to every peer when a rank's program returns (written without a
# race edge, like the free credits): EOF after it is a peer that
# finished, so a wait on it has diverged rather than lost a peer.
_FIN_TAG = ("fin",)

#: Lazily resolved races._TracedBody (the analysis package imports the
#: distributed drivers, which import this module — a module-scope
#: import here would be circular, exactly like the verifier hooks).
_TRACED_BODY = None


def _traced_body_cls():
    global _TRACED_BODY
    if _TRACED_BODY is None:
        from repro.analysis.verify.races import _TracedBody

        _TRACED_BODY = _TracedBody
    return _TRACED_BODY


# ---------------------------------------------------------------------------
# the Transport contract
# ---------------------------------------------------------------------------


class Transport(ABC):
    """Tagged point-to-point messaging between SPMD ranks.

    ``send`` never blocks (backends buffer outbound traffic) so the
    symmetric exchange patterns of the collective algorithms cannot
    deadlock; ``recv`` buffers out-of-order arrivals by ``(source,
    tag)`` and raises :class:`CollectiveTimeoutError` when nothing
    arrives in time.  Subclasses implement the wire: how a body
    reaches a peer (:meth:`_post`), how payloads are encoded/accounted
    (:meth:`_send_payload` / :meth:`_decode`), and how inbound traffic
    is pumped into the pending buffers (:meth:`_pump`).

    The hook attributes (``injector``, ``sanitizer``, ``monitor``,
    ``profiler``) are installed by :class:`~repro.vmpi.mp_comm.
    ProcessComm` / the launcher; ``None`` keeps every boundary at a
    single ``is None`` test.
    """

    #: backend name, e.g. ``"shm"`` / ``"tcp"`` (``repro run --backend``).
    kind = "abstract"
    #: whether payloads may ride pooled shared-memory segments — gates
    #: the shm-lifecycle sanitizer (meaningless on socket backends).
    uses_shm_pool = False

    #: A blocked recv registers on the wait-for board immediately but
    #: only starts probing for cycles after this long — transient
    #: cycles of correct send-then-recv patterns (ring allgather,
    #: dissemination barrier) resolve within a message latency and
    #: never survive until the probe phase, let alone two stable
    #: probes.
    _PROBE_AFTER = 1.0
    #: Poll slice while a deadlock monitor is watching (the monitor
    #: needs wake-ups to probe; without one the wait can park a full
    #: second per slice).
    _PROBE_SLICE = 0.25

    def __init__(self, rank: int, size: int, config) -> None:
        self.rank = rank
        self.size = size
        self._config = config
        #: set by ProcessComm when a FaultPlan targets this rank.
        self.injector = None
        #: verify mode only: shm lifecycle state machine and wait-for
        #: board (both from repro.analysis.verify.runtime, installed
        #: lazily by ProcessComm so the import stays one-directional).
        self.sanitizer = None
        self.monitor = None
        #: profile mode only: the rank's SpanProfiler (installed by
        #: ProcessComm) — recv() splits its time into blocked-wait vs
        #: copy-out histograms.  None keeps the hot path at one test.
        self.profiler = None
        #: race_detect mode only: the process-global happens-before
        #: detector (repro.analysis.verify.races, installed lazily by
        #: ProcessComm).  Sends snapshot the sender's vector clock
        #: onto a per-(src, dst) channel, arrivals carry it to the
        #: consuming thread, and shm segment accesses plus endpoint
        #: occupancy are checked.  None keeps every boundary at one
        #: `is None` test, like the other hooks.
        self.race_detector = None
        #: always-on flight recorder (repro.observability.telemetry,
        #: installed by ProcessComm unless CommConfig.flight is off) —
        #: send() logs one "post" event per outbound payload.  A pure
        #: observer: nothing on the payload path changes, and None
        #: keeps the boundary at one `is None` test like the other
        #: hooks.
        self.flight = None
        #: elastic recovery: set when a revoke notice arrives on
        #: :data:`_REVOKE_TAG`; every blocked wait then raises
        #: :class:`WorldRevokedError` unless ``_in_recovery`` is set
        #: (the agreement rounds themselves must keep receiving).
        self.revoked = False
        self.revoked_hint: set[int] = set()
        self._in_recovery = False
        self._pending: dict[tuple, deque] = {}
        self.sent_messages = 0
        self.sent_words = 0
        self.sent_bytes = 0
        self.recv_messages = 0
        self.recv_words = 0
        self.recv_bytes = 0
        self.shm_messages = 0

    def counters(self) -> tuple[int, ...]:
        return (
            self.sent_messages,
            self.sent_words,
            self.sent_bytes,
            self.recv_messages,
            self.recv_words,
            self.recv_bytes,
            self.shm_messages,
        )

    # -- wire primitives (backend-specific) ---------------------------------

    @abstractmethod
    def _post(self, dest: int, tag: tuple, body: object) -> None:
        """Raw wire write of an already-encoded body — no counters, no
        fault hooks (control traffic and free-credits ride this)."""

    @abstractmethod
    def _send_payload(self, dest: int, tag: tuple, payload: object) -> None:
        """Encode ``payload``, account it, and post it to ``dest``."""

    @abstractmethod
    def _pump(self, timeout: float) -> None:
        """Block up to ``timeout`` seconds for inbound traffic, moving
        every arrival into the pending buffers via :meth:`_note`."""

    def _check_peer(self, src: int) -> None:
        """Raise if ``src`` can no longer deliver (a vanished peer);
        a wire without such a signal keeps this no-op."""

    # -- shared plumbing ----------------------------------------------------

    def _note(self, src: int, tag: tuple, body: object) -> None:
        det = self.race_detector
        # Every _post appends exactly one clock snapshot to the
        # (src, dst) channel, so every noted arrival pops exactly one
        # (revoke notices included — a skipped pop would shift the
        # FIFO and merge stale, weaker clocks into later consumers).
        # Free credits keep their own channel and never reach here.
        # The snapshot is present only when the sender shares this
        # process (hosted ranks); cross-process channels stay empty.
        clock = (
            det.channel_pop((src, self.rank)) if det is not None else None
        )
        if tag == _REVOKE_TAG:
            self.revoked = True
            try:
                self.revoked_hint.update(int(r) for r in body)
            except TypeError:  # pragma: no cover - malformed notice
                pass
            return
        if clock is not None:
            # Carry the sender's clock with the body so the
            # happens-before edge is merged by the thread that
            # *consumes* the message in _recv_body — under overlap the
            # pumping thread may be the prefetch worker, and crediting
            # it with the edge would invent order that does not exist.
            body = _traced_body_cls()(clock, body)
        self._pending.setdefault((src, tag), deque()).append(body)

    def post_revoke(self, failed: set[int] | frozenset[int]) -> None:
        """Broadcast a revoke notice to every peer believed alive.

        Best effort: posts to ranks not in ``failed`` and swallows
        wire errors (a peer that died between detection and broadcast
        is exactly who the notice is about).  Also revokes *this*
        transport so the local rank cannot re-enter a collective.
        """
        self.revoked = True
        self.revoked_hint.update(failed)
        notice = sorted(self.revoked_hint)
        for peer in range(self.size):
            if peer == self.rank or peer in failed:
                continue
            try:
                self._post(peer, _REVOKE_TAG, notice)
            except (OSError, CollectiveTimeoutError):
                self.revoked_hint.add(peer)

    def _check_revoked(self) -> None:
        if self.revoked and not self._in_recovery:
            raise WorldRevokedError(
                f"rank {self.rank}: communicator revoked — peer "
                f"failure reported (suspected dead: "
                f"{sorted(self.revoked_hint) or 'unknown'})",
                failed=tuple(sorted(self.revoked_hint)),
            )

    def _decode(self, src: int, body: tuple) -> object:
        """Decode a received body and account the payload arrays."""
        self.recv_messages += 1
        payload = body[1]
        arrays = _payload_arrays(payload)
        if arrays is not None:
            self.recv_words += sum(a.size for _, a in arrays)
            self.recv_bytes += sum(a.nbytes for _, a in arrays)
        return payload

    # -- send ---------------------------------------------------------------

    def send(self, dest: int, tag: tuple, payload: object) -> None:
        """Send ``payload`` to ``dest`` (non-blocking).

        The fault-injection boundary: seeded drop/bitflip specs fire
        here, on every backend — a dropped message advances the
        sender's counters but never touches the wire, a bit-flipped
        one is corrupted before encoding (so it rides an shm segment
        or a stream frame identically).
        """
        if not 0 <= dest < self.size:
            raise ValueError(f"dest {dest} out of range for size {self.size}")
        fr = self.flight
        if fr is not None:
            # Collective tags lead with the op counter; p2p tags with
            # "p2p".  Observational only — dropped-injected sends are
            # logged too (the rank *did* post them).
            op_id = tag[0] if tag and isinstance(tag[0], int) else 0
            fr.record("post", op_id, "", dest)
        det = self.race_detector
        if det is not None:
            det.enter_transport(id(self))
        try:
            if self.injector is not None:
                payload, dropped = self.injector.on_send(payload)
                if dropped:
                    # Lost on the wire: the sender did its part
                    # (counters advance) but nothing reaches the peer.
                    arrays = _payload_arrays(payload)
                    if arrays is not None:
                        self.sent_words += sum(a.size for _, a in arrays)
                        self.sent_bytes += sum(a.nbytes for _, a in arrays)
                    self.sent_messages += 1
                    return
            self._send_payload(dest, tag, payload)
        finally:
            if det is not None:
                det.exit_transport(id(self))

    # -- recv ---------------------------------------------------------------

    def recv(self, src: int, tag: tuple, timeout: float | None = None) -> object:
        prof = self.profiler
        if prof is None:
            return self._decode(src, self._recv_body(src, tag, timeout))
        # Wait-vs-transfer split: time blocked for the message versus
        # time copying the payload out (shm memcpy / unpickle).
        t0 = time.perf_counter()
        body = self._recv_body(src, tag, timeout)
        t1 = time.perf_counter()
        out = self._decode(src, body)
        prof.metrics.observe("collective_wait_seconds", t1 - t0)
        prof.metrics.observe(
            "collective_transfer_seconds", time.perf_counter() - t1
        )
        return out

    def recv_prefetch(
        self, src: int, tag: tuple, timeout: float | None = None
    ) -> object:
        """:meth:`recv`, called from the overlap worker.

        Identical wire behavior, but blocked time lands in
        ``collective_wait_hidden_seconds``: the main thread is doing
        payload math while this wait runs, so attributing it to
        ``collective_wait_seconds`` would double-count the interval as
        both compute and wait.  Single-user contract: the comm layer
        guarantees at most one thread is inside the transport at any
        instant (a prefetch is submitted only after every send of the
        step has completed, and joined before the main thread's next
        transport call), so no locking is needed here.
        """
        prof = self.profiler
        if prof is None:
            return self._decode(src, self._recv_body(src, tag, timeout))
        t0 = time.perf_counter()
        body = self._recv_body(src, tag, timeout)
        t1 = time.perf_counter()
        out = self._decode(src, body)
        prof.metrics.observe("collective_wait_hidden_seconds", t1 - t0)
        prof.metrics.observe(
            "collective_transfer_seconds", time.perf_counter() - t1
        )
        return out

    def _recv_body(
        self, src: int, tag: tuple, timeout: float | None
    ) -> object:
        """The shared blocking wait: next body for ``(src, tag)``."""
        if not 0 <= src < self.size:
            raise ValueError(f"src {src} out of range for size {self.size}")
        timeout = (
            self._config.collective_timeout if timeout is None else timeout
        )
        key = (src, tag)
        start = time.monotonic()
        deadline = start + timeout
        mon = self.monitor
        det = self.race_detector
        if det is not None:
            det.enter_transport(id(self))
        registered = False
        try:
            while True:
                waiting = self._pending.get(key)
                if waiting:
                    body = waiting.popleft()
                    if det is not None and isinstance(
                        body, _traced_body_cls()
                    ):
                        det.merge_clock(body.clock)
                        body = body.body
                    return body
                self._check_revoked()
                self._check_peer(src)
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise CollectiveTimeoutError(
                        f"rank {self.rank}: no message from rank {src} "
                        f"with tag {tag!r} after {timeout:.1f}s — "
                        f"collective call sequences have diverged across "
                        f"ranks (or a peer died)"
                    )
                poll = min(remaining, 1.0)
                if mon is not None:
                    if not registered:
                        op_id = tag[0] if isinstance(tag[0], int) else 0
                        mon.begin_wait(src, op_id)
                        registered = True
                    if time.monotonic() - start >= self._PROBE_AFTER:
                        mon.probe()  # raises DeadlockError when stable
                    poll = min(poll, self._PROBE_SLICE)
                self._pump(poll)
        finally:
            if det is not None:
                det.exit_transport(id(self))
            if registered:
                mon.end_wait()

    # -- verify-mode control channel ----------------------------------------
    #
    # Signature/verdict traffic of the tier-2 verifier.  Deliberately
    # counter-neutral (like the shm free-credits): it must not perturb
    # the CollectiveRecord counters the alpha-beta cost formulas are
    # certified against, so a verify run stays trace-identical to a
    # plain one.

    def ctrl_send(self, dest: int, tag: tuple, payload: object) -> None:
        self._post(dest, ("ctl",) + tuple(tag), ("ctl", payload))

    def ctrl_recv(
        self, src: int, tag: tuple, timeout: float | None = None
    ) -> object:
        body = self._recv_body(src, ("ctl",) + tuple(tag), timeout)
        return body[1]

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Release wire resources (sockets, segments, mappings)."""

    def purge(self) -> None:
        """Exception-path cleanup after a dead collective: release
        anything a non-returning peer could leak (pending buffers
        always; every owned segment on the shm backend)."""
        self._pending.clear()

    def verify_shutdown(self, grace: float = 0.5) -> None:
        """End-of-rank sanitizer check: every segment this rank sent
        must have been credited back.  Late credits from peers that
        finished marginally after us get a bounded grace drain before
        a leak is declared (SPMD213).  A no-op on backends without a
        sanitizer (non-shm transports skip the lifecycle checks but
        keep signature matching and deadlock detection)."""
        if self.sanitizer is None:
            return
        deadline = time.monotonic() + grace
        while self.sanitizer.leaked() and time.monotonic() < deadline:
            self._pump(0.01)
        self.sanitizer.check_exit()


# ---------------------------------------------------------------------------
# the framed socket stream both backends share
# ---------------------------------------------------------------------------

#: Frame header: 8-byte big-endian payload length.
_LEN = struct.Struct(">Q")

#: Per-syscall read/write granularity.
_IO_CHUNK = 1 << 20


class _StreamTransport(Transport):
    """Length-prefixed pickled frames over one stream socket per peer.

    Subclasses connect a socket per peer and hand them to
    :meth:`_attach`; from then on the wire is shared.  ``send`` appends
    a frame to the peer's write buffer and flushes opportunistically;
    ``recv`` pumps a :mod:`selectors` loop that drains readable sockets
    (parsing complete frames into the pending buffers) and flushes
    writable ones — so symmetric exchanges progress even when both
    directions exceed the kernel socket buffers.

    A peer that exits or closes is EOF on its socket: once no
    buffered message matches, a wait on it raises
    :class:`TransportClosedError` — or :class:`CollectiveTimeoutError`
    if the peer announced with :meth:`finish` that its program
    returned, since then the call sequences diverged.  A close
    mid-frame is reported as a torn frame with the byte counts.  Writes
    never raise: output to a peer that closed is dropped, and the
    failure surfaces at the next wait on that peer.

    Wire format: ``8-byte big-endian length || pickle((tag, body))``.
    Payload arrays are pickled (protocol 5 keeps them zero-copy on the
    encode side); counters account array words/bytes, not frame bytes.
    """

    def __init__(self, rank: int, size: int, config) -> None:
        super().__init__(rank, size, config)
        self._sel = selectors.DefaultSelector()
        self._peers: dict[int, socket.socket] = {}
        self._rx: dict[int, bytearray] = {}
        self._tx: dict[int, bytearray] = {}
        self._writable: set[int] = set()  # peers with WRITE interest on
        self._gone: set[int] = set()  # peers whose stream hit EOF
        self._finished: set[int] = set()  # peers whose program returned
        self._closed = False

    def _attach(self, peers: dict[int, socket.socket]) -> None:
        for peer, sock in peers.items():
            sock.setblocking(False)
            self._peers[peer] = sock
            self._rx[peer] = bytearray()
            self._tx[peer] = bytearray()
            self._sel.register(sock, selectors.EVENT_READ, peer)

    # -- wire ---------------------------------------------------------------

    def _post(self, dest: int, tag: tuple, body: object) -> None:
        det = self.race_detector
        if det is not None:
            det.channel_send((self.rank, dest))
        self._write_frame(dest, tag, body)

    def _write_frame(self, dest: int, tag: tuple, body: object) -> None:
        """Frame ``body`` to ``dest`` — no counters, no race edge."""
        if dest == self.rank:
            # Self-sends never touch the wire: the pending map plays
            # the loopback.
            self._note(dest, tag, body)
            return
        data = pickle.dumps((tag, body), protocol=pickle.HIGHEST_PROTOCOL)
        buf = self._tx[dest]
        buf += _LEN.pack(len(data))
        buf += data
        self._flush(dest)

    def finish(self) -> None:
        """Tell every peer this rank's program returned."""
        for peer in self._peers:
            self._write_frame(peer, _FIN_TAG, None)

    def _note(self, src: int, tag: tuple, body: object) -> None:
        if tag == _FIN_TAG:
            self._finished.add(src)
            return
        super()._note(src, tag, body)

    def _send_payload(self, dest: int, tag: tuple, payload: object) -> None:
        arrays = _payload_arrays(payload)
        body: tuple = ("pkl", payload)
        if arrays is not None:
            contig = [(k, _contig(a)) for k, a in arrays]
            self.sent_words += sum(a.size for _, a in contig)
            self.sent_bytes += sum(a.nbytes for _, a in contig)
            body = self._encode_arrays(
                contig, isinstance(payload, np.ndarray)
            )
        self.sent_messages += 1
        self._post(dest, tag, body)

    def _encode_arrays(
        self, contig: list[tuple[object, np.ndarray]], single: bool
    ) -> tuple:
        """The body of an array payload: pickled into the frame."""
        return ("pkl", contig[0][1] if single else dict(contig))

    def _set_write_interest(self, peer: int, want: bool) -> None:
        if want == (peer in self._writable) or peer in self._gone:
            return
        events = selectors.EVENT_READ
        if want:
            events |= selectors.EVENT_WRITE
            self._writable.add(peer)
        else:
            self._writable.discard(peer)
        self._sel.modify(self._peers[peer], events, peer)

    def _flush(self, peer: int) -> None:
        """Write as much buffered output to ``peer`` as the kernel
        accepts; leave the rest for the selector loop."""
        buf = self._tx[peer]
        sock = self._peers[peer]
        while buf:
            try:
                n = sock.send(memoryview(buf)[:_IO_CHUNK])
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                # The peer closed: nobody will read this output.  Reads
                # go on until its EOF, so frames it sent before closing
                # still arrive.
                buf.clear()
                break
            del buf[:n]
        self._set_write_interest(peer, bool(buf))

    def _mark_gone(self, peer: int) -> None:
        self._gone.add(peer)
        self._writable.discard(peer)
        try:
            self._sel.unregister(self._peers[peer])
        except (KeyError, ValueError):  # pragma: no cover - already out
            pass

    def _read(self, peer: int) -> None:
        sock = self._peers[peer]
        buf = self._rx[peer]
        closed = False
        while True:
            try:
                chunk = sock.recv(_IO_CHUNK)
            except (BlockingIOError, InterruptedError):
                break
            except ConnectionResetError:
                # The peer closed with our output unread; what it sent
                # before closing has been read, so this is its EOF.
                chunk = b""
            except OSError as exc:
                self._mark_gone(peer)
                raise TransportClosedError(
                    f"rank {self.rank}: connection from rank {peer} "
                    f"failed mid-recv ({exc})"
                ) from exc
            if not chunk:
                closed = True
                break
            buf += chunk
            if len(chunk) < _IO_CHUNK:
                break  # drained for now; selector wakes us for more
        self._parse(peer)
        if closed:
            self._mark_gone(peer)
            if buf:
                promised = (
                    _LEN.unpack_from(buf)[0] if len(buf) >= _LEN.size
                    else None
                )
                raise TransportClosedError(
                    f"rank {self.rank}: rank {peer} closed the "
                    f"connection mid-frame — partial recv of "
                    f"{len(buf)} bytes"
                    + (
                        f" of a frame promising {promised}"
                        if promised is not None
                        else " (incomplete header)"
                    )
                    + " (torn frame)"
                )

    def _parse(self, peer: int) -> None:
        buf = self._rx[peer]
        while len(buf) >= _LEN.size:
            (n,) = _LEN.unpack_from(buf)
            end = _LEN.size + n
            if len(buf) < end:
                break
            tag, body = pickle.loads(bytes(memoryview(buf)[_LEN.size:end]))
            del buf[:end]
            self._note(peer, tag, body)

    def _pump(self, timeout: float) -> None:
        if not self._peers or self._closed:
            if timeout > 0:
                time.sleep(min(timeout, 0.01))
            return
        for key, mask in self._sel.select(timeout):
            peer = key.data
            if mask & selectors.EVENT_WRITE:
                self._flush(peer)
            if mask & selectors.EVENT_READ:
                self._read(peer)

    def _check_peer(self, src: int) -> None:
        if src in self._gone and src in self._finished:
            raise CollectiveTimeoutError(
                f"rank {self.rank}: rank {src} finished and no buffered "
                "message matches — collective call sequences have "
                "diverged across ranks"
            )
        if src in self._gone:
            raise TransportClosedError(
                f"rank {self.rank}: rank {src} closed its connection and "
                "no buffered message matches — the peer finished early, "
                "diverged, or died"
            )

    # -- lifecycle ----------------------------------------------------------

    def close(self, linger: float = 5.0) -> None:
        """Flush buffered output (bounded by ``linger`` seconds), then
        close every peer connection.  Safe to call twice."""
        if self._closed:
            return
        self._closed = True
        deadline = time.monotonic() + linger
        for peer, sock in self._peers.items():
            buf = self._tx.get(peer)
            while buf and peer not in self._gone:
                if time.monotonic() >= deadline:
                    break
                try:
                    n = sock.send(memoryview(buf)[:_IO_CHUNK])
                    del buf[:n]
                except (BlockingIOError, InterruptedError):
                    time.sleep(0.002)
                except OSError:
                    break
            try:
                self._sel.unregister(sock)
            except (KeyError, ValueError):
                pass
            try:
                sock.close()
            except OSError:  # pragma: no cover - already closed
                pass
        self._sel.close()
        self._peers.clear()


# ---------------------------------------------------------------------------
# shared-memory backend: the stream over socketpairs, plus a segment pool
# ---------------------------------------------------------------------------


class ShmPoolTransport(_StreamTransport):
    """The stream over pre-forked AF_UNIX socketpairs, plus a segment
    pool for large payloads.

    ``peers`` maps each peer rank to this rank's end of their
    socketpair (:func:`~repro.vmpi.mp_comm.run_spmd` makes them before
    it forks).  Array payloads of at least ``CommConfig.shm_min_bytes``
    travel through *pooled* ``multiprocessing.shared_memory`` segments:
    the frame carries only the segment handle; the receiver copies the
    data out, caches its mapping, and returns the segment name to the
    owner as a frame on :data:`_FREE_TAG`, so the next send reuses the
    already-faulted-in pages.  A credit for an owner that already
    closed is dropped.  ``close`` unlinks every pooled segment;
    in-flight ones stay for ``run_spmd``'s run-token sweep.
    """

    kind = "shm"
    uses_shm_pool = True

    _POOL_CAP = 16  # free segments kept per size class before unlinking

    def __init__(
        self,
        rank: int,
        size: int,
        peers: dict[int, socket.socket],
        run_token: str,
        config,
    ) -> None:
        super().__init__(rank, size, config)
        self._run_token = run_token
        self._shm_seq = 0
        self._owned: dict[str, object] = {}  # name -> SharedMemory
        self._seg_size: dict[str, int] = {}
        self._free: dict[int, deque] = {}  # size class -> free names
        self._rx_cache: dict[str, object] = {}  # attached peer segments
        self._attach(peers)

    # -- shared-memory segment pool -----------------------------------------

    def _obtain_segment(self, total: int):
        """A segment with >= ``total`` bytes: pooled if available."""
        self._pump(0)  # take in the credits that already arrived
        cls = _segment_class(total)
        free = self._free.get(cls)
        if free:
            name = free.popleft()
            if self.sanitizer is not None:
                self.sanitizer.on_obtain(name)
            return self._owned[name], name
        self._shm_seq += 1
        name = f"mpx{self._run_token}r{self.rank}n{self._shm_seq}"
        shm = _shm_mod.SharedMemory(create=True, size=cls, name=name)
        _unregister_shm(shm)
        # Sanctioned escape: the pool owns the handle; close()/purge()
        # and the launcher's run-token sweep end its lifecycle, and in
        # verify mode the ShmSanitizer audits every transition.
        self._owned[name] = shm  # spmdlint: ignore[SPMD105]
        self._seg_size[name] = cls
        return shm, name

    def _release_segment(self, name: str) -> None:
        """A credit came back: pool the segment (or unlink the excess)."""
        if self.sanitizer is not None:
            self.sanitizer.on_release(name)
        cls = self._seg_size[name]
        free = self._free.setdefault(cls, deque())
        if len(free) < self._POOL_CAP:
            free.append(name)
            return
        shm = self._owned.pop(name)
        del self._seg_size[name]
        shm.close()
        _unlink_segment(shm)
        if self.sanitizer is not None:
            self.sanitizer.on_unlink(name)

    def _note(self, src: int, tag: tuple, body: object) -> None:
        if tag == _FREE_TAG:
            det = self.race_detector
            if det is not None:
                # Consumer -> owner edge: the peer finished reading
                # the segment before crediting it back, so the owner's
                # next write to this segment is ordered after that
                # read.  Credits are written without _post, hence
                # their own channel key.
                det.channel_recv(("free", src, self.rank))
            self._release_segment(body)
            return
        super()._note(src, tag, body)

    def close(self, linger: float = 5.0) -> None:
        """Unlink pooled segments, unmap everything this rank touched,
        then close the stream.

        In-flight segments (sent, not yet credited) stay on disk for
        the launcher's run-token sweep — a peer may not have attached
        yet.
        """
        if not self._closed:
            for free in self._free.values():
                for name in free:
                    shm = self._owned.pop(name)
                    del self._seg_size[name]
                    shm.close()
                    _unlink_segment(shm)
            self._free.clear()
            for shm in self._owned.values():
                shm.close()
            for shm in self._rx_cache.values():
                shm.close()
            self._rx_cache.clear()
        super().close(linger)

    def purge(self) -> None:
        """Unlink *every* segment this rank owns, pooled and in-flight.

        The exception path of a timed-out collective: the peers this
        rank was exchanging with are not coming back for the in-flight
        segments, so leaving them on disk would leak ``/dev/shm`` for
        any embedder that drives the transport without ``run_spmd``'s
        run-token sweep.  Unlinking is safe even if a straggler is
        still attached — the mapping stays valid until it closes.
        """
        super().purge()
        for shm in self._owned.values():
            shm.close()
            _unlink_segment(shm)
        self._owned.clear()
        self._seg_size.clear()
        self._free.clear()
        for shm in self._rx_cache.values():
            shm.close()
        self._rx_cache.clear()
        if self.sanitizer is not None:
            self.sanitizer.clear()

    # -- wire ---------------------------------------------------------------

    def _encode_arrays(
        self, contig: list[tuple[object, np.ndarray]], single: bool
    ) -> tuple:
        nbytes = sum(a.nbytes for _, a in contig)
        if (
            _shm_mod is None
            or nbytes < self._config.shm_min_bytes
            or nbytes == 0
        ):
            return super()._encode_arrays(contig, single)
        total = sum(_align8(a.nbytes) for _, a in contig)
        shm, name = self._obtain_segment(total)
        if self.race_detector is not None:
            self.race_detector.on_access(("shm", name), "w")
        metas: list[tuple[object, tuple, str, int]] = []
        offset = 0
        for key, a in contig:
            view = np.ndarray(
                a.shape, dtype=a.dtype, buffer=shm.buf, offset=offset
            )
            view[...] = a
            del view
            metas.append((key, a.shape, a.dtype.str, offset))
            offset += _align8(a.nbytes)
        self.shm_messages += 1
        if self.sanitizer is not None:
            self.sanitizer.on_send(name)
        return ("shm", name, metas, single)

    def _decode(self, src: int, body: tuple) -> object:
        kind = body[0]
        if kind != "shm":
            return super()._decode(src, body)
        self.recv_messages += 1
        _, name, metas, single = body
        shm = self._rx_cache.get(name)
        if shm is None:
            shm = _shm_mod.SharedMemory(name=name)
            _unregister_shm(shm)  # attach auto-registers on 3.11
            # Sanctioned escape: the receive cache keeps peer
            # mappings warm across messages; close() unmaps them.
            self._rx_cache[name] = shm  # spmdlint: ignore[SPMD105]
        det = self.race_detector
        if det is not None:
            det.on_access(("shm", name), "r")
        items: list[tuple[object, np.ndarray]] = []
        for key, shape, dtype_str, offset in metas:
            view = np.ndarray(
                shape, dtype=np.dtype(dtype_str),
                buffer=shm.buf, offset=offset,
            )
            items.append((key, view.copy()))
            del view
        # Hand the drained segment back to its owner for reuse.
        if det is not None:
            det.channel_send(("free", self.rank, src))
        self._write_frame(src, _FREE_TAG, name)
        self.recv_words += sum(a.size for _, a in items)
        self.recv_bytes += sum(a.nbytes for _, a in items)
        if single:
            return items[0][1]
        return dict(items)


# ---------------------------------------------------------------------------
# TCP backend: the stream over a rendezvous-built mesh
# ---------------------------------------------------------------------------


def _sock_send_obj(sock: socket.socket, obj: object) -> None:
    """Blocking framed pickle send (rendezvous / handshake only)."""
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_LEN.pack(len(data)) + data)


def _sock_recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise TransportClosedError(
                f"connection closed after {len(buf)} of {n} expected "
                "bytes (torn frame)"
            )
        buf += chunk
    return bytes(buf)


def _sock_recv_obj(sock: socket.socket) -> object:
    (n,) = _LEN.unpack(_sock_recv_exact(sock, _LEN.size))
    return pickle.loads(_sock_recv_exact(sock, n))


def open_rendezvous_listener(
    host: str = "127.0.0.1", port: int = 0
) -> socket.socket:
    """A listening socket for :func:`serve_rendezvous` — bind first,
    read the chosen port from ``getsockname()``, then hand the
    ``host:port`` to the ranks as a worker argument."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((host, port))
    listener.listen(128)
    return listener


def serve_rendezvous(
    listener: socket.socket, size: int, timeout: float = 60.0
) -> dict[int, tuple[str, int]]:
    """Run one address-exchange round for ``size`` ranks.

    Every rank connects, announces ``("hello", rank, host, port)`` (its
    own mesh listener), and receives the full ``{rank: (host, port)}``
    map once all ranks have checked in.  Returns the map (the launcher
    may log it).  Closes the accepted connections but not ``listener``
    — the caller owns that.
    """
    listener.settimeout(timeout)
    conns: list[socket.socket] = []
    addrs: dict[int, tuple[str, int]] = {}
    try:
        while len(addrs) < size:
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                raise CollectiveTimeoutError(
                    f"rendezvous: only {len(addrs)} of {size} ranks "
                    f"checked in within {timeout:.1f}s"
                ) from None
            conn.settimeout(timeout)
            msg = _sock_recv_obj(conn)
            if not (isinstance(msg, tuple) and msg and msg[0] == "hello"):
                conn.close()
                continue
            _, rank, host, port = msg
            addrs[int(rank)] = (str(host), int(port))
            conns.append(conn)
        for conn in conns:
            _sock_send_obj(conn, addrs)
    finally:
        for conn in conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
    return addrs


class TcpSocketTransport(_StreamTransport):
    """The stream over per-peer TCP connections.

    Mesh establishment: each rank opens its own listener on an
    ephemeral port, registers ``(rank, host, port)`` with the
    rendezvous server at ``rendezvous``, receives the full address
    map, then connects to every lower rank and accepts from every
    higher one (a rank handshake names the connector).  Connections
    are persistent for the lifetime of the rank; every payload is
    pickled into the frame.
    """

    kind = "tcp"
    uses_shm_pool = False

    def __init__(
        self,
        rank: int,
        size: int,
        config,
        rendezvous: tuple[str, int] | None = None,
    ) -> None:
        super().__init__(rank, size, config)
        if size > 1:
            if rendezvous is None:
                raise ValueError(
                    "TcpSocketTransport needs a rendezvous (host, port) "
                    "for size > 1"
                )
            self._establish_mesh(rendezvous)

    # -- mesh setup ---------------------------------------------------------

    @property
    def _connect_timeout(self) -> float:
        return float(getattr(self._config, "tcp_connect_timeout", 20.0))

    def _connect_retry(
        self, addr: tuple[str, int], deadline: float
    ) -> socket.socket:
        """Connect with jittered exponential backoff until ``deadline``
        — the peer's listener (or the rendezvous server) may not be up
        yet.

        The backoff doubles from 50 ms toward 1 s with ±50% jitter, so
        a wide world starting up does not hammer one listener in
        lockstep.  Exhaustion raises :class:`TransportClosedError`
        *from* the last socket error, so callers (and tracebacks) see
        the real cause (``ConnectionRefusedError``, ``EHOSTUNREACH``,
        ...) chained under the timeout instead of a bare refusal.
        """
        last: Exception | None = None
        delay = 0.05
        while time.monotonic() < deadline:
            try:
                return socket.create_connection(addr, timeout=1.0)
            except OSError as exc:
                last = exc
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                sleep = delay * (0.5 + random.random())
                time.sleep(min(sleep, max(remaining, 0.0)))
                delay = min(delay * 2.0, 1.0)
        raise TransportClosedError(
            f"rank {self.rank}: could not connect to {addr[0]}:{addr[1]} "
            f"within {self._connect_timeout:.1f}s "
            f"(last error: {last!r})"
        ) from last

    def _establish_mesh(self, rendezvous: tuple[str, int]) -> None:
        timeout = self._connect_timeout
        deadline = time.monotonic() + timeout
        listener = open_rendezvous_listener()
        peers: dict[int, socket.socket] = {}
        try:
            host, port = listener.getsockname()[:2]
            rdv = self._connect_retry(tuple(rendezvous), deadline)
            try:
                rdv.settimeout(timeout)
                _sock_send_obj(rdv, ("hello", self.rank, host, port))
                addrs = _sock_recv_obj(rdv)
            finally:
                rdv.close()
            # Lower ranks are (or will be) accepting: connect to them;
            # higher ranks connect to us: accept and read the rank
            # handshake.  The listen backlog holds early connectors,
            # so ordering across ranks cannot deadlock.
            for peer in range(self.rank):
                sock = self._connect_retry(tuple(addrs[peer]), deadline)
                sock.settimeout(timeout)
                _sock_send_obj(sock, ("peer", self.rank))
                peers[peer] = sock
            for _ in range(self.size - self.rank - 1):
                listener.settimeout(max(0.1, deadline - time.monotonic()))
                try:
                    sock, _ = listener.accept()
                except socket.timeout:
                    raise CollectiveTimeoutError(
                        f"rank {self.rank}: mesh setup timed out waiting "
                        f"for higher-rank connections "
                        f"({len(peers)} of {self.size - 1} peers up)"
                    ) from None
                sock.settimeout(timeout)
                msg = _sock_recv_obj(sock)
                peers[int(msg[1])] = sock
        finally:
            listener.close()
        for sock in peers.values():
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._attach(peers)
