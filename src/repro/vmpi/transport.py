"""Pluggable point-to-point transports for the process-parallel layer.

:class:`~repro.vmpi.mp_comm.ProcessComm` runs its collective
algorithms over a :class:`Transport`: tagged, non-blocking
``send`` / blocking ``recv`` point-to-point messaging plus the
lifecycle, fault-injection, verification, and flight-recorder hooks the
rest of the stack taps.  Both backends speak one wire: length-prefixed
pickled frames over one stream socket per peer (``selectors``,
non-blocking with buffered writes so symmetric exchange patterns
cannot deadlock on full socket buffers).  :func:`connect_mesh` makes
every rank pair's socket in the launcher before it forks, as an MPI
launcher wires up a communicator before user code runs; the backends
differ only in the kind of socket and where large payloads travel:

* :class:`ShmPoolTransport` — the fast single-host default, over one
  AF_UNIX ``socketpair`` per rank pair.  NumPy payloads of at least
  ``CommConfig.shm_min_bytes`` travel through *pooled* shared-memory
  segments (files under ``/dev/shm`` that both ranks ``mmap``, with no
  helper process) without pickling: only the segment name and the
  receiver's free credit ride the stream.
* :class:`TcpSocketTransport` — one loopback TCP connection per rank
  pair; every payload is pickled into the frame.

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
  returned, since then the call sequences diverged.  Purge-on-timeout
  and the launcher's failure reports work unchanged, and elastic
  recovery needs nothing more: a survivor reports and exits, so its
  own EOF wakes every peer still waiting on it.
* **Control traffic** (:meth:`Transport.ctrl_send` /
  :meth:`Transport.ctrl_recv`, used by the tier-2 verifier), finish
  notices, and the shm free credits ride the same stream but are
  counter-neutral, so verified runs stay trace-identical to plain runs
  on every backend.
"""

from __future__ import annotations

import mmap
import os
import pickle
import selectors
import socket
import struct
import time
from collections import deque

import numpy as np

__all__ = [
    "CollectiveTimeoutError",
    "ShmPoolTransport",
    "TcpSocketTransport",
    "Transport",
    "TransportClosedError",
    "connect_mesh",
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
    timeout path (purge, launcher abort) treats a
    vanished peer exactly like a diverged one — just without waiting
    out the full collective timeout.
    """


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


#: The tmpfs directory segments live in, or ``None`` on a host without
#: one (every payload then takes the pickle path).
_SHM_DIR = "/dev/shm" if os.path.isdir("/dev/shm") else None


class _Segment:
    """A shared-memory segment: the file ``_SHM_DIR/<name>``, mapped.

    A ``size`` creates the file (exclusively, mode 0600, as
    ``multiprocessing.shared_memory`` does) at that length; without one
    the existing file is mapped whole.  No resource tracker watches the
    name: the pool's ``close``/``purge`` and ``run_spmd``'s run-token
    sweep unlink every segment.
    """

    def __init__(self, name: str, size: int = 0) -> None:
        self.path = os.path.join(_SHM_DIR, name)
        create = os.O_CREAT | os.O_EXCL if size else 0
        fd = os.open(self.path, os.O_RDWR | create, 0o600)
        try:
            if size:
                os.ftruncate(fd, size)
            self._map = mmap.mmap(fd, size)
        except OSError:
            if size:
                self.unlink()
            raise
        finally:
            os.close(fd)  # the mapping holds its own reference
        self.buf = memoryview(self._map)

    def close(self) -> None:
        """Unmap (idempotent); the file stays until :meth:`unlink`."""
        self.buf.release()
        self._map.close()

    def unlink(self) -> None:
        try:
            os.unlink(self.path)
        except OSError:  # already swept
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

# Sent to every peer when a rank's program returns: EOF after it is a
# peer that finished, so a wait on it has diverged rather than lost a
# peer.
_FIN_TAG = ("fin",)


# ---------------------------------------------------------------------------
# the Transport: framed socket stream both backends share
# ---------------------------------------------------------------------------

#: Frame header: 8-byte big-endian payload length.
_LEN = struct.Struct(">Q")

#: Per-syscall read/write granularity.
_IO_CHUNK = 1 << 20


class Transport:
    """Tagged point-to-point messaging between SPMD ranks over one
    stream socket per peer.

    ``send`` never blocks (it appends a frame to the peer's write
    buffer and flushes opportunistically) so the symmetric exchange
    patterns of the collective algorithms cannot deadlock; ``recv``
    buffers out-of-order arrivals by ``(source, tag)``, pumping a
    :mod:`selectors` loop that drains readable sockets (parsing
    complete frames into the pending buffers) and flushes writable
    ones, and raises :class:`CollectiveTimeoutError` when nothing
    arrives in time.  ``peers`` maps each peer rank to this rank's end
    of their stream (:func:`connect_mesh`); the shm backend also
    overrides how array payloads are encoded (:meth:`_encode_arrays` /
    :meth:`_decode`).

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

    The hook attributes (``injector``, ``sanitizer``, ``monitor``,
    ``race_guard``, ``flight``) are installed by
    :class:`~repro.vmpi.mp_comm.ProcessComm`; ``None`` keeps every
    boundary at a single ``is None`` test.
    """

    #: backend name, ``"shm"`` / ``"tcp"`` (``repro run --backend``).
    kind = "stream"
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

    def __init__(
        self, rank: int, size: int, peers: dict[int, socket.socket], config
    ) -> None:
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
        #: race_detect mode only: this transport's occupancy guard
        #: (repro.analysis.verify.races.TransportGuard, installed
        #: lazily by ProcessComm) — send and the blocking wait raise
        #: SPMD223 when a second thread enters while another is still
        #: inside.  None keeps both boundaries at one `is None` test,
        #: like the other hooks.
        self.race_guard = None
        #: the rank's flight recorder (repro.observability.telemetry,
        #: installed by ProcessComm unless CommConfig.flight is off) —
        #: send() logs one "post" event per outbound payload, and
        #: recv() splits its time into blocked-wait vs copy-out
        #: histograms in the recorder's metrics.  A pure observer:
        #: nothing on the payload path changes, and None keeps each
        #: boundary at one `is None` test like the other hooks.
        self.flight = None
        self._pending: dict[tuple, deque] = {}
        self.sent_messages = 0
        self.sent_words = 0
        self.sent_bytes = 0
        self.recv_messages = 0
        self.recv_words = 0
        self.recv_bytes = 0
        self.shm_messages = 0
        self._sel = selectors.DefaultSelector()
        self._peers: dict[int, socket.socket] = dict(peers)
        self._rx: dict[int, bytearray] = {p: bytearray() for p in peers}
        self._tx: dict[int, bytearray] = {p: bytearray() for p in peers}
        for peer, sock in peers.items():
            sock.setblocking(False)
            self._sel.register(sock, selectors.EVENT_READ, peer)
        self._writable: set[int] = set()  # peers with WRITE interest on
        self._gone: set[int] = set()  # peers whose stream hit EOF
        self._finished: set[int] = set()  # peers whose program returned
        self._closed = False

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

    # -- wire ---------------------------------------------------------------

    def _post(self, dest: int, tag: tuple, body: object) -> None:
        """Raw wire write of an already-encoded body — no counters, no
        fault hooks (control traffic, finish notices and shm free
        credits ride this)."""
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
            self._post(peer, _FIN_TAG, None)

    def _send_payload(self, dest: int, tag: tuple, payload: object) -> None:
        """Encode ``payload``, account it, and post it to ``dest``."""
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
        """Block up to ``timeout`` seconds for inbound traffic, moving
        every arrival into the pending buffers via :meth:`_note`."""
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

    # -- shared plumbing ----------------------------------------------------

    def _note(self, src: int, tag: tuple, body: object) -> None:
        if tag == _FIN_TAG:
            self._finished.add(src)
            return
        self._pending.setdefault((src, tag), deque()).append(body)

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
        guard = self.race_guard
        if guard is not None:
            guard.enter()
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
            if guard is not None:
                guard.exit()

    # -- recv ---------------------------------------------------------------

    def recv(self, src: int, tag: tuple, timeout: float | None = None) -> object:
        fr = self.flight
        if fr is None:
            return self._decode(src, self._recv_body(src, tag, timeout))
        # Wait-vs-transfer split: time blocked for the message versus
        # time copying the payload out (shm memcpy / unpickle).
        t0 = time.perf_counter()
        body = self._recv_body(src, tag, timeout)
        t1 = time.perf_counter()
        out = self._decode(src, body)
        fr.metrics.observe("collective_wait_seconds", t1 - t0)
        fr.metrics.observe(
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
        fr = self.flight
        if fr is None:
            return self._decode(src, self._recv_body(src, tag, timeout))
        t0 = time.perf_counter()
        body = self._recv_body(src, tag, timeout)
        t1 = time.perf_counter()
        out = self._decode(src, body)
        fr.metrics.observe("collective_wait_hidden_seconds", t1 - t0)
        fr.metrics.observe(
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
        guard = self.race_guard
        if guard is not None:
            guard.enter()
        registered = False
        try:
            while True:
                waiting = self._pending.get(key)
                if waiting:
                    return waiting.popleft()
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
            if guard is not None:
                guard.exit()
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
# shared-memory backend: the stream over socketpairs, plus a segment pool
# ---------------------------------------------------------------------------


class ShmPoolTransport(Transport):
    """The stream over pre-forked AF_UNIX socketpairs, plus a segment
    pool for large payloads.

    Array payloads of at least ``CommConfig.shm_min_bytes`` travel
    through *pooled* :class:`_Segment` files under ``/dev/shm``: the
    frame carries only the segment name; the receiver copies the data
    out, caches its mapping, and returns the segment name to the owner
    as a frame on :data:`_FREE_TAG`, so the next send reuses the
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
        super().__init__(rank, size, peers, config)
        self._run_token = run_token
        self._shm_seq = 0
        self._owned: dict[str, _Segment] = {}
        self._free: dict[int, deque] = {}  # size class -> free names
        self._rx_cache: dict[str, _Segment] = {}  # attached peer segments

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
        shm = _Segment(name, cls)
        # The pool owns the segment; close()/purge() and the launcher's
        # run-token sweep end its lifecycle, and in verify mode the
        # ShmSanitizer audits every transition.
        self._owned[name] = shm
        return shm, name

    def _release_segment(self, name: str) -> None:
        """A credit came back: pool the segment (or unlink the excess)."""
        if self.sanitizer is not None:
            self.sanitizer.on_release(name)
        free = self._free.setdefault(len(self._owned[name].buf), deque())
        if len(free) < self._POOL_CAP:
            free.append(name)
            return
        shm = self._owned.pop(name)
        shm.close()
        shm.unlink()
        if self.sanitizer is not None:
            self.sanitizer.on_unlink(name)

    def _note(self, src: int, tag: tuple, body: object) -> None:
        if tag == _FREE_TAG:
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
                    shm.close()
                    shm.unlink()
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
            shm.unlink()
        self._owned.clear()
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
            _SHM_DIR is None
            or nbytes < self._config.shm_min_bytes
            or nbytes == 0
        ):
            return super()._encode_arrays(contig, single)
        total = sum(_align8(a.nbytes) for _, a in contig)
        shm, name = self._obtain_segment(total)
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
            shm = _Segment(name)
            # The receive cache keeps peer mappings warm across
            # messages; close() unmaps them.
            self._rx_cache[name] = shm
        items: list[tuple[object, np.ndarray]] = []
        for key, shape, dtype_str, offset in metas:
            view = np.ndarray(
                shape, dtype=np.dtype(dtype_str),
                buffer=shm.buf, offset=offset,
            )
            items.append((key, view.copy()))
            del view
        # Hand the drained segment back to its owner for reuse.
        self._post(src, _FREE_TAG, name)
        self.recv_words += sum(a.size for _, a in items)
        self.recv_bytes += sum(a.nbytes for _, a in items)
        if single:
            return items[0][1]
        return dict(items)




# ---------------------------------------------------------------------------
# TCP backend, and the mesh both backends run over
# ---------------------------------------------------------------------------


class TcpSocketTransport(Transport):
    """The stream over per-peer loopback TCP connections that
    :func:`connect_mesh` makes; every payload is pickled into the
    frame."""

    kind = "tcp"


def connect_mesh(size: int, wire: str) -> list[dict[int, socket.socket]]:
    """One connected stream per rank pair, made before the ranks fork:
    ``mesh[r][p]`` is rank ``r``'s end of its stream to rank ``p``.

    ``wire="tcp"`` connects each pair over loopback TCP through one
    short-lived listener, with ``TCP_NODELAY`` on both ends (a frame is
    written whole, so Nagle's algorithm could only delay it);
    ``wire="shm"`` gets an AF_UNIX ``socketpair()``.
    If a connection fails partway, every socket made so far is closed
    before the error propagates.
    """
    mesh: list[dict[int, socket.socket]] = [{} for _ in range(size)]
    tcp = wire == "tcp"
    listener = (
        socket.create_server(("127.0.0.1", 0)) if tcp and size > 1 else None
    )
    try:
        for i in range(size):
            for j in range(i + 1, size):
                if not tcp:
                    mesh[i][j], mesh[j][i] = socket.socketpair()
                    continue
                client = socket.create_connection(listener.getsockname())
                mesh[i][j] = client
                while True:
                    server, addr = listener.accept()
                    if addr == client.getsockname():
                        break
                    server.close()  # another process on the loopback port
                mesh[j][i] = server
                for sock in (client, server):
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except BaseException:
        for ends in mesh:
            for sock in ends.values():
                sock.close()
        raise
    finally:
        if listener is not None:
            listener.close()
    return mesh
