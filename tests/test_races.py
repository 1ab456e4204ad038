"""Tier-2 transport occupancy guard (``race_detect=True``, SPMD223).

Every rank is its own process, so the only thread that shares a
rank's transport is the overlap prefetch worker.  Unit tests cover
the guard (a second thread inside one transport raises, reentrancy
by the occupant does not); end to end, the armed guard fires on a
program that breaks the one-in-flight contract, a clean run with it
armed is bit-identical to one without, and a failed run's postmortem
verdict does not depend on it.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.analysis.verify.races import RaceError, TransportGuard
from repro.vmpi.mp_comm import CommConfig, RankFailureError, run_spmd


def in_thread(fn):
    """Run ``fn`` on a fresh thread; re-raise any exception in the
    caller, return ``fn``'s result otherwise."""
    box: list[object] = []
    err: list[BaseException] = []

    def runner():
        try:
            box.append(fn())
        except BaseException as exc:  # noqa: BLE001 - test harness
            err.append(exc)

    t = threading.Thread(target=runner)
    t.start()
    t.join()
    if err:
        raise err[0]
    return box[0] if box else None


# ---------------------------------------------------------------------------
# the guard
# ---------------------------------------------------------------------------


class TestDetectorVerdicts:
    def test_transport_occupancy_spmd223(self):
        guard = TransportGuard(rank=3)
        guard.enter()
        with pytest.raises(RaceError) as ei:
            in_thread(guard.enter)
        assert ei.value.rule_id == "SPMD223"
        msg = str(ei.value)
        assert "SPMD223" in msg and "rank 3" in msg
        # both threads and both call sites are in the message.
        assert threading.current_thread().name in msg
        assert msg.count("[") >= 3
        guard.exit()

    def test_transport_reentrancy_same_thread_ok(self):
        guard = TransportGuard(rank=0)
        guard.enter()
        guard.enter()  # collectives nest sends
        guard.exit()
        # still occupied by this thread at depth 1; a second thread
        # must still trip the guard.
        with pytest.raises(RaceError):
            in_thread(guard.enter)
        guard.exit()
        # fully exited: another thread may now enter.
        in_thread(guard.enter)


# ---------------------------------------------------------------------------
# end to end: the armed guard fires on a broken contract
# ---------------------------------------------------------------------------


def _prog_second_thread(comm):
    """Rank 0 parks a helper thread in a blocking receive, then its
    main thread sends on the same transport while the helper is still
    inside — exactly what the overlap contract forbids."""
    if comm.rank == 1:
        comm.recv(0, tag=2)
        return 1
    helper = threading.Thread(
        target=lambda: comm.recv(1, tag=1, timeout=3.0),
        name="helper-recv",
        daemon=True,
    )
    helper.start()
    while comm._t.race_guard._owner is None:
        time.sleep(0.01)
    comm.send(1, np.zeros(1), tag=2)
    return 0


class TestGuardEndToEnd:
    def test_second_thread_in_transport_raises(self, backend):
        with pytest.raises(RankFailureError) as ei:
            run_spmd(
                _prog_second_thread, 2, transport=backend,
                config=CommConfig(race_detect=True, collective_timeout=10.0),
                timeout=60.0,
            )
        assert ei.value.failed_ranks == (0,)
        msg = str(ei.value)
        assert "SPMD223" in msg
        assert "helper-recv" in msg and "MainThread" in msg


# ---------------------------------------------------------------------------
# end to end: clean runs are bit-identical with the guard armed
# ---------------------------------------------------------------------------


def _prog_numeric(comm, n):
    """A clean mixed collective/p2p workload whose result must not
    depend on whether the guard is armed."""
    rng = np.random.default_rng(1000 + comm.rank)
    x = rng.standard_normal(n)
    total = comm.allreduce(x)
    rows = comm.allgather(x.reshape(1, -1))
    top = comm.bcast(total if comm.rank == 0 else None, root=0)
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    comm.send(right, x, tag=3)
    nbr = comm.recv(left, tag=3)
    comm.barrier()
    return total, rows, top, nbr


class TestBitIdentity:
    def test_overlap_worker_is_clean_under_detection(self, backend):
        """The overlap prefetch thread pumps the transport while the
        main thread computes — the one-in-flight hand-off must keep
        the guard (SPMD223) silent, and the result bit-identical to
        the non-overlapped guarded run."""
        plain = run_spmd(
            _prog_numeric, 2, 256,
            config=CommConfig(race_detect=True, collective_timeout=15.0),
            transport=backend, timeout=60.0,
        )
        overlapped = run_spmd(
            _prog_numeric, 2, 256,
            config=CommConfig(
                race_detect=True, overlap=True, collective_timeout=15.0
            ),
            transport=backend, timeout=60.0,
        )
        for b, t in zip(plain, overlapped):
            for bb, tt in zip(b, t):
                np.testing.assert_array_equal(bb, tt)

    def test_detect_on_matches_detect_off(self, backend):
        base = run_spmd(
            _prog_numeric, 2, 64,
            config=CommConfig(collective_timeout=15.0),
            transport=backend, timeout=60.0,
        )
        traced = run_spmd(
            _prog_numeric, 2, 64,
            config=CommConfig(race_detect=True, collective_timeout=15.0),
            transport=backend, timeout=60.0,
        )
        for b, t in zip(base, traced):
            for bb, tt in zip(b, t):
                np.testing.assert_array_equal(bb, tt)


# ---------------------------------------------------------------------------
# postmortems do not depend on the guard
# ---------------------------------------------------------------------------


def _prog_raise_after_four(comm):
    """Rank 2 raises after 4 allreduces; ranks 0 and 1 block in the
    fifth."""
    for _ in range(4):
        comm.allreduce(np.ones(3))
    if comm.rank == 2:
        raise RuntimeError("rank 2 gives up")
    comm.allreduce(np.ones(3))
    return comm.rank


class TestPostmortem:
    def test_verdict_independent_of_race_detect(self, backend):
        verdicts = []
        for race_detect in (False, True):
            with pytest.raises(RankFailureError) as ei:
                run_spmd(
                    _prog_raise_after_four, 3, transport=backend,
                    config=CommConfig(
                        race_detect=race_detect, collective_timeout=15.0
                    ),
                    timeout=60.0,
                )
            verdicts.append(ei.value.postmortem.verdict)
        assert verdicts[0] == verdicts[1]
        assert "vector clocks" not in verdicts[1]
        assert verdicts[0].startswith("rank(s) [2] never reached allreduce")
