"""Unit tests for the Transport ABC and its backends.

The suite drives both wires *in process* — tcp transports meshed over
loopback from threads, shm transports built on ``socket.socketpair()``
— so framing, timeout, and lifecycle behavior is tested without the
launcher in the way.  Each ``_*Cases`` class holds wire-neutral cases;
its ``TestTcp*`` and ``TestShm*`` subclasses run them on one wire.
Shm-only cases cover the segment pool, plus a CLI smoke test for
``repro run --backend tcp``.
"""

from __future__ import annotations

import glob
import socket
import struct
import threading
import time
import uuid

import numpy as np
import pytest

from repro.vmpi.mp_comm import CommConfig, _sweep_shm
from repro.vmpi.transport import (
    CollectiveTimeoutError,
    ShmPoolTransport,
    TcpSocketTransport,
    Transport,
    TransportClosedError,
    open_rendezvous_listener,
    serve_rendezvous,
)


def _tcp_mesh(
    size: int, config: CommConfig | None = None
) -> list[TcpSocketTransport]:
    """Mesh ``size`` TcpSocketTransports over loopback, in threads
    (constructors block on each other's rendezvous check-in)."""
    config = config or CommConfig(collective_timeout=10.0)
    listener = open_rendezvous_listener("127.0.0.1")
    rendezvous = listener.getsockname()[:2]
    server = threading.Thread(
        target=serve_rendezvous, args=(listener, size, 10.0), daemon=True
    )
    server.start()
    out: list[TcpSocketTransport | None] = [None] * size
    errs: list[Exception] = []

    def build(rank: int) -> None:
        try:
            out[rank] = TcpSocketTransport(rank, size, config, rendezvous)
        except Exception as exc:  # pragma: no cover - setup failure
            errs.append(exc)

    threads = [
        threading.Thread(target=build, args=(r,)) for r in range(size)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=15.0)
    server.join(timeout=15.0)
    listener.close()
    assert not errs, errs
    assert all(t is not None for t in out)
    return out  # type: ignore[return-value]


def _shm_pair(config: CommConfig | None = None, token: str | None = None):
    """Two ShmPoolTransports over one socketpair, as ``run_spmd``
    builds them."""
    config = config or CommConfig(collective_timeout=10.0)
    token = token or uuid.uuid4().hex[:8]
    s0, s1 = socket.socketpair()
    return [
        ShmPoolTransport(0, 2, {1: s0}, token, config),
        ShmPoolTransport(1, 2, {0: s1}, token, config),
    ]


def _mesh(wire: str, config: CommConfig | None = None):
    return _tcp_mesh(2, config) if wire == "tcp" else _shm_pair(config)


def _close(mesh) -> None:
    for t in mesh:
        t.close()
        if t.kind == "shm":
            _sweep_shm(t._run_token)


@pytest.fixture
def pair(request):
    mesh = _mesh(request.cls.wire)
    yield mesh
    _close(mesh)


def _send_then_flush(t, msgs) -> threading.Thread:
    """Send from a thread that then flushes ``t``'s buffered output:
    an in-process pair has no peer process pumping the sender, so
    output past the kernel socket buffer waits for this, as it would
    for a rank's next wait."""

    def run() -> None:
        for dest, tag, payload in msgs:
            t.send(dest, tag, payload)
        deadline = time.monotonic() + 10.0
        while any(t._tx.values()) and time.monotonic() < deadline:
            t._pump(0.05)

    th = threading.Thread(target=run, daemon=True)
    th.start()
    return th


def _joined(th: threading.Thread) -> None:
    th.join(timeout=15.0)
    assert not th.is_alive()


class _FramingCases:
    wire = ""

    @pytest.mark.parametrize(
        "nbytes",
        [0, 1, 7, 8, 255, 4096, (1 << 18) + 13, (1 << 21) + 1],
    )
    def test_array_roundtrip_sizes(self, pair, nbytes):
        """Frames round-trip at every size class: empty, sub-header,
        pool-chunk-sized, and beyond the shm pool's largest class."""
        a, b = pair
        payload = np.arange(nbytes, dtype=np.uint8)
        a.send(1, (1, "x"), payload)
        got = b.recv(0, (1, "x"), timeout=10.0)
        np.testing.assert_array_equal(got, payload)
        assert got.dtype == payload.dtype

    def test_random_payload_property(self, pair):
        """Property-style sweep: random dtypes/shapes/objects arrive
        bit-identically and in order."""
        a, b = pair
        rng = np.random.default_rng(0)
        sent = []
        msgs = []
        for i in range(40):
            kind = rng.integers(3)
            if kind == 0:
                n = int(rng.integers(0, 5000))
                payload = rng.standard_normal(n)
            elif kind == 1:
                payload = {
                    int(k): rng.standard_normal(int(rng.integers(1, 50)))
                    for k in range(int(rng.integers(1, 4)))
                }
            else:
                payload = ("token", int(rng.integers(1 << 30)))
            sent.append(payload)
            msgs.append((1, (2, i), payload))
        sender = _send_then_flush(a, msgs)
        for i, payload in enumerate(sent):
            got = b.recv(0, (2, i), timeout=10.0)
            if isinstance(payload, np.ndarray):
                np.testing.assert_array_equal(got, payload)
            elif isinstance(payload, dict):
                assert sorted(got) == sorted(payload)
                for k in payload:
                    np.testing.assert_array_equal(got[k], payload[k])
            else:
                assert got == payload
        _joined(sender)

    def test_noncontiguous_array(self, pair):
        a, b = pair
        base = np.arange(64.0).reshape(8, 8)
        a.send(1, (3, "nc"), base[:, ::2])
        np.testing.assert_array_equal(
            b.recv(0, (3, "nc"), timeout=10.0), base[:, ::2]
        )

    def test_zero_d_array(self, pair):
        a, b = pair
        a.send(1, (4, "0d"), np.float64(3.5) + np.zeros(()))
        got = b.recv(0, (4, "0d"), timeout=10.0)
        assert got.shape == ()
        assert float(got) == 3.5

    def test_self_send(self, pair):
        a, _ = pair
        a.send(0, (5, "self"), np.array([1.0, 2.0]))
        np.testing.assert_array_equal(
            a.recv(0, (5, "self"), timeout=5.0), [1.0, 2.0]
        )

    def test_counters_count_payload_not_wire(self, pair):
        """Counters account array words/bytes (trace-identical across
        wires), not pickled frame bytes."""
        a, b = pair
        payload = np.zeros(1000)
        a.send(1, (6, "c"), payload)
        b.recv(0, (6, "c"), timeout=10.0)
        assert a.sent_messages == 1
        assert a.sent_words == 1000
        assert a.sent_bytes == 8000
        assert b.recv_messages == 1
        assert b.recv_words == 1000
        assert b.recv_bytes == 8000
        assert a.shm_messages == b.shm_messages == 0


class TestTcpFraming(_FramingCases):
    wire = "tcp"


class TestShmFraming(_FramingCases):
    wire = "shm"


class _TimeoutCases:
    wire = ""

    def test_recv_timeout(self, pair):
        _, b = pair
        with pytest.raises(CollectiveTimeoutError, match="diverged"):
            b.recv(0, (9, "never"), timeout=0.3)


class TestShmTimeouts(_TimeoutCases):
    wire = "shm"

    def test_single_rank_needs_no_peers(self):
        t = ShmPoolTransport(0, 1, {}, uuid.uuid4().hex[:8], CommConfig())
        t.send(0, (1, "a"), np.array([7.0]))
        np.testing.assert_array_equal(t.recv(0, (1, "a")), [7.0])
        t.close()


class TestTcpTimeouts(_TimeoutCases):
    wire = "tcp"

    def test_timeout_is_a_runtime_error_subclass(self):
        assert issubclass(TransportClosedError, CollectiveTimeoutError)
        assert issubclass(CollectiveTimeoutError, RuntimeError)

    def test_rendezvous_timeout_when_ranks_missing(self):
        listener = open_rendezvous_listener("127.0.0.1")
        try:
            with pytest.raises(CollectiveTimeoutError, match="checked in"):
                serve_rendezvous(listener, size=2, timeout=0.3)
        finally:
            listener.close()

    def test_mesh_setup_timeout_without_rendezvous_server(self):
        # Nobody listening at the rendezvous address: setup must fail
        # with a timeout, not hang.
        dead = open_rendezvous_listener("127.0.0.1")
        addr = dead.getsockname()[:2]
        dead.close()
        cfg = CommConfig(tcp_connect_timeout=0.5)
        with pytest.raises(CollectiveTimeoutError, match="connect"):
            TcpSocketTransport(0, 2, cfg, addr)

    def test_requires_rendezvous_for_multirank(self):
        with pytest.raises(ValueError, match="rendezvous"):
            TcpSocketTransport(0, 2, CommConfig(), None)

    def test_single_rank_needs_no_rendezvous(self):
        t = TcpSocketTransport(0, 1, CommConfig())
        t.send(0, (1, "a"), np.array([7.0]))
        np.testing.assert_array_equal(t.recv(0, (1, "a")), [7.0])
        t.close()


class _LifecycleCases:
    wire = ""

    def test_double_close_is_safe(self):
        mesh = _mesh(self.wire)
        for t in mesh:
            t.close()
        _close(mesh)  # second close must be a no-op

    def test_close_flushes_buffered_sends(self):
        """A rank that sends and immediately closes must not lose the
        tail: close() drains the tx buffers before the FIN."""
        a, b = _mesh(self.wire)
        payload = np.arange(200_000, dtype=np.float64)
        a.send(1, (1, "tail"), payload)
        a.close()
        got = b.recv(0, (1, "tail"), timeout=10.0)
        np.testing.assert_array_equal(got, payload)
        _close([a, b])

    def test_peer_close_raises_instead_of_full_timeout(self):
        """After a peer's clean close, waiting on it raises promptly
        (TransportClosedError) instead of burning the whole
        collective timeout."""
        a, b = _mesh(self.wire, CommConfig(collective_timeout=30.0))
        a.close()
        with pytest.raises(TransportClosedError, match="closed"):
            b.recv(0, (1, "gone"), timeout=30.0)
        _close([a, b])

    def test_torn_frame_detected(self):
        """A peer that dies mid-frame (header promised more bytes than
        arrived) surfaces as a torn-frame TransportClosedError — the
        on either wire."""
        a, b = _mesh(self.wire)
        # Rank 0 writes a raw frame header promising 1000 bytes, sends
        # only 2, then closes the socket underneath the transport.
        sock = a._peers[1]
        sock.setblocking(True)
        sock.sendall(struct.pack(">Q", 1000) + b"xy")
        sock.close()
        a._sel.close()
        a._peers.clear()
        a._closed = True
        with pytest.raises(TransportClosedError, match="torn frame"):
            b.recv(0, (1, "torn"), timeout=10.0)
        _close([a, b])

    def test_no_leaked_fds_after_close(self):
        """Selector and sockets are released on close: the transport
        holds no live peer sockets afterwards."""
        a, b = _mesh(self.wire)
        socks = list(a._peers.values())
        _close([a, b])
        assert a._peers == {}
        for s in socks:
            assert s.fileno() == -1  # closed, descriptor returned

    def test_purge_clears_pending(self, pair):
        a, b = pair
        a.send(1, (1, "x"), np.array([1.0]))
        b._pump(1.0)
        assert b._pending
        b.purge()
        assert not b._pending


class TestTcpLifecycle(_LifecycleCases):
    wire = "tcp"


class TestShmLifecycle(_LifecycleCases):
    wire = "shm"


class TestShmPool:
    """What only the shm wire has: payloads of at least
    ``shm_min_bytes`` ride pooled segments, credited back as frames."""

    MIN = CommConfig().shm_min_bytes

    def test_threshold_payload_rides_a_segment_and_is_credited(self):
        a, b = _shm_pair()
        payload = np.arange(self.MIN, dtype=np.uint8)
        a.send(1, (1, "big"), payload)
        assert a.shm_messages == 1
        (name,) = a._owned
        np.testing.assert_array_equal(b.recv(0, (1, "big")), payload)
        assert a._free == {}  # the credit is still on the wire
        a._pump(1.0)
        assert list(a._free[a._seg_size[name]]) == [name]
        # The next send reuses the credited segment.
        a.send(1, (2, "big"), payload)
        assert list(a._owned) == [name]
        np.testing.assert_array_equal(b.recv(0, (2, "big")), payload)
        _close([a, b])

    def test_below_threshold_is_pickled(self):
        a, b = _shm_pair()
        payload = np.arange(self.MIN - 1, dtype=np.uint8)
        sender = _send_then_flush(a, [(1, (1, "small"), payload)])
        np.testing.assert_array_equal(b.recv(0, (1, "small")), payload)
        _joined(sender)
        assert a.shm_messages == 0
        assert a._owned == {}
        _close([a, b])

    def test_credit_to_a_closed_owner_is_dropped_and_swept(self):
        token = uuid.uuid4().hex[:8]
        a, b = _shm_pair(token=token)
        payload = np.ones(self.MIN // 8)
        a.send(1, (1, "big"), payload)
        a.close()  # the segment is in flight: it stays for the sweep
        assert glob.glob(f"/dev/shm/mpx{token}*")
        # b copies the payload out and credits a, which has closed.
        np.testing.assert_array_equal(b.recv(0, (1, "big")), payload)
        b.close()
        _sweep_shm(token)
        assert glob.glob(f"/dev/shm/mpx{token}*") == []


class TestTransportContract:
    wire = "tcp"

    def test_shm_is_a_transport(self):
        assert issubclass(ShmPoolTransport, Transport)
        assert issubclass(TcpSocketTransport, Transport)

    def test_uses_shm_pool_flags(self):
        assert ShmPoolTransport.uses_shm_pool is True
        assert TcpSocketTransport.uses_shm_pool is False

    def test_kind_labels(self):
        assert ShmPoolTransport.kind == "shm"
        assert TcpSocketTransport.kind == "tcp"

    def test_counters_shape(self):
        t = TcpSocketTransport(0, 1, CommConfig())
        assert t.counters() == (0,) * 7
        t.close()

    def test_ctrl_channel_counter_neutral(self, pair):
        a, b = pair
        a.ctrl_send(1, (1, "sig"), {"round": 1})
        assert b.ctrl_recv(0, (1, "sig"), timeout=10.0) == {"round": 1}
        assert a.counters() == (0,) * 7
        assert b.counters() == (0,) * 7

    def test_dest_validation(self, pair):
        a, _ = pair
        with pytest.raises(ValueError, match="out of range"):
            a.send(5, (1, "x"), np.zeros(1))
        with pytest.raises(ValueError, match="out of range"):
            a.recv(-1, (1, "x"), timeout=0.1)


class TestLauncherShim:
    """``repro run`` is a thin CLI over the one launcher,
    :func:`~repro.vmpi.mp_comm.run_spmd`."""

    def test_repro_run_tcp_smoke_cli(self):
        """End-to-end loopback smoke of ``repro run --backend tcp``:
        umbrella CLI -> ``run_spmd(transport="tcp")`` -> forked ranks
        meshed over TCP."""
        from repro.cli import main

        assert main(["run", "--backend", "tcp", "--smoke", "--np", "2"]) == 0
