"""Tier-2 dynamic verifier: injected mismatches must raise named,
rule-tagged errors; clean runs must stay bit- and trace-identical."""

import time

import numpy as np
import pytest

from repro.analysis.verify.runtime import (
    CollectiveSignature,
    DeadlockError,
    ShmLifecycleError,
    ShmSanitizer,
    WaitMonitor,
    match_signatures,
)
from repro.vmpi.mp_comm import (
    CommConfig,
    ProcessComm,
    RankFailureError,
    run_spmd,
)

VERIFY = CommConfig(verify=True)


def sig(**kw):
    base = dict(kind="allreduce", seq=1)
    base.update(kw)
    return CollectiveSignature(**base)


class TestMatchSignatures:
    def test_consistent_round_passes(self):
        s = sig(op="sum", dtype="float64", shape=(4, 4))
        assert match_signatures({0: s, 1: s, 2: s}) is None

    def test_single_member_skips(self):
        assert match_signatures({0: sig(kind="bcast")}) is None

    def test_kind_divergence_is_202(self):
        rule, msg = match_signatures(
            {0: sig(kind="allreduce"), 1: sig(kind="barrier")}
        )
        assert rule == "SPMD202"
        assert "rank 0" in msg and "rank 1" in msg

    def test_allreduce_shape_mismatch(self):
        rule, msg = match_signatures(
            {0: sig(shape=(4,)), 1: sig(shape=(5,))}
        )
        assert rule == "SPMD201"
        assert "shape" in msg

    def test_allreduce_dtype_mismatch(self):
        rule, _ = match_signatures(
            {0: sig(dtype="float64"), 1: sig(dtype="float32")}
        )
        assert rule == "SPMD201"

    def test_allgather_off_axis_shape_mismatch(self):
        mk = lambda shape: sig(kind="allgather", axis=0, shape=shape)
        # Differing along the concat axis is legal ...
        assert match_signatures({0: mk((2, 5)), 1: mk((3, 5))}) is None
        # ... differing off-axis is not.
        rule, _ = match_signatures({0: mk((2, 5)), 1: mk((2, 6))})
        assert rule == "SPMD201"

    def test_root_disagreement(self):
        rule, msg = match_signatures(
            {0: sig(kind="bcast", root=0), 1: sig(kind="bcast", root=1)}
        )
        assert rule == "SPMD201"
        assert "root" in msg

    def test_bcast_payload_shapes_may_differ(self):
        # Non-roots legally pass None (empty signature payload).
        assert (
            match_signatures(
                {
                    0: sig(kind="bcast", root=0, shape=(3,)),
                    1: sig(kind="bcast", root=0, shape=()),
                }
            )
            is None
        )


class TestShmSanitizer:
    def test_clean_cycle(self):
        s = ShmSanitizer(0)
        s.on_obtain("seg1")
        s.on_send("seg1")
        s.on_release("seg1")
        s.on_obtain("seg1")  # pooled -> reuse is fine
        assert s.leaked() == []
        s.check_exit()

    def test_use_after_release_is_211(self):
        s = ShmSanitizer(0)
        s.on_send("seg1")
        with pytest.raises(ShmLifecycleError, match="SPMD211"):
            s.on_obtain("seg1")

    def test_double_release_is_212(self):
        s = ShmSanitizer(0)
        s.on_send("seg1")
        s.on_release("seg1")
        with pytest.raises(ShmLifecycleError, match="SPMD212"):
            s.on_release("seg1")

    def test_leak_at_exit_is_213(self):
        s = ShmSanitizer(0)
        s.on_send("seg1")
        assert s.leaked() == ["seg1"]
        with pytest.raises(ShmLifecycleError, match="SPMD213"):
            s.check_exit()

    def test_unlink_forgets_state(self):
        s = ShmSanitizer(0)
        s.on_send("seg1")
        s.on_unlink("seg1")
        s.check_exit()


class TestWaitMonitor:
    @staticmethod
    def board(size):
        b = [0] * (3 * size)
        for r in range(size):
            b[3 * r] = -1
        return b

    def test_no_cycle_no_raise(self):
        b = self.board(2)
        m = WaitMonitor(b, 0, 2)
        m.begin_wait(1, 7)  # 1 is running, not waiting on 0
        m.probe()
        m.probe()

    def test_stable_cycle_raises_on_second_probe(self):
        b = self.board(2)
        m0 = WaitMonitor(b, 0, 2)
        m1 = WaitMonitor(b, 1, 2)
        m0.begin_wait(1, 7)
        m1.begin_wait(0, 9)
        m0.probe()  # first sighting arms the witness
        with pytest.raises(DeadlockError, match="SPMD203"):
            m0.probe()

    def test_transient_cycle_is_not_flagged(self):
        # The peer makes progress between probes (stamp changes):
        # exactly a ring pattern's in-flight cycle resolving.
        b = self.board(2)
        m0 = WaitMonitor(b, 0, 2)
        m1 = WaitMonitor(b, 1, 2)
        m0.begin_wait(1, 7)
        m1.begin_wait(0, 9)
        m0.probe()  # first sighting arms the witness
        m1.end_wait()
        m1.begin_wait(0, 10)  # peer progressed: new wait, new stamp
        m0.probe()  # witness differs -> re-arm, no raise
        # Only once the *new* cycle also holds still does it raise.
        with pytest.raises(DeadlockError):
            m0.probe()

    def test_three_rank_cycle_report_names_all(self):
        b = self.board(3)
        ms = [WaitMonitor(b, r, 3) for r in range(3)]
        ms[0].begin_wait(1, 1)
        ms[1].begin_wait(2, 2)
        ms[2].begin_wait(0, 3)
        ms[0].probe()
        with pytest.raises(DeadlockError) as ei:
            ms[0].probe()
        msg = str(ei.value)
        for r in range(3):
            assert f"rank {r}" in msg


# -- SPMD programs (module level: must be picklable) ------------------------


def _prog_clean(comm: ProcessComm):
    x = np.full((4, 4), float(comm.rank + 1))
    total = comm.allreduce(x)
    payload = np.arange(6.0) if comm.rank == 0 else None
    payload = comm.bcast(payload, root=0)
    part = comm.reduce_scatter(np.arange(8.0) + comm.rank, axis=0)
    g = comm.allgather(np.array([float(comm.rank)]), axis=0)
    comm.barrier()
    return {
        "total": total,
        "payload": payload,
        "part": part,
        "gathered": g,
        "trace": comm.trace.totals(),
    }


def _prog_wrong_root(comm: ProcessComm):
    payload = np.ones(3) if comm.rank == 0 else None
    root = 1 if comm.rank == 1 else 0  # injected: rank 1 disagrees
    return comm.bcast(payload, root=root)


def _prog_skip(comm: ProcessComm):
    if comm.rank != 1:  # injected: rank 1 skips the collective
        comm.allreduce(np.ones(2))
    return comm.rank


def _prog_reorder(comm: ProcessComm):
    if comm.rank == 0:  # injected: rank 0 swaps the two collectives
        comm.allreduce(np.ones(2))
        comm.barrier()
    else:
        comm.barrier()
        comm.allreduce(np.ones(2))
    return comm.rank


def _prog_shape_mismatch(comm: ProcessComm):
    n = 4 if comm.rank == 0 else 5  # injected: diverging block shape
    return comm.allreduce(np.ones(n))


def _prog_deadlock(comm: ProcessComm):
    # Injected: classic cross-recv. 0 waits on 1, 1 waits on 0.
    return comm.recv(1 - comm.rank, tag=5)


def _prog_subgroups(comm: ProcessComm):
    group = tuple(r for r in range(comm.size) if r % 2 == comm.rank % 2)
    total = comm.allreduce(np.array([1.0]), group=group)
    return float(total[0])


def _prog_use_after_release(comm: ProcessComm):
    # Injected pool corruption: rank 0 hands its in-flight segment
    # straight back to the free pool without waiting for the credit,
    # so the next big send reuses memory a peer may still be reading.
    big = np.full(80_000, float(comm.rank))  # 640 KB -> shm path
    if comm.rank == 0:
        comm.send(1, big, tag=0)
        t = comm._t
        name = next(iter(t._owned))
        t._free.setdefault(t._seg_size[name], __import__(
            "collections").deque()).append(name)
        comm.send(1, big, tag=1)  # reuses the in-flight segment
        return None
    got0 = comm.recv(0, tag=0)
    got1 = comm.recv(0, tag=1)
    return float(got0[0] + got1[0])


def _prog_double_release(comm: ProcessComm):
    # Injected duplicated credit: after the real round trip, rank 0
    # forges a second shmfree for the same segment.
    from repro.vmpi.mp_comm import _FREE_TAG

    big = np.full(80_000, float(comm.rank))
    if comm.rank == 0:
        comm.send(1, big, tag=0)
        # The reply rides the stream behind the peer's credit, so the
        # credit has been taken in by the time it arrives.
        comm.recv(1, tag=1)
        t = comm._t
        name = next(iter(t._owned))
        t._note(1, _FREE_TAG, name)  # duplicated credit
        return None
    got = comm.recv(0, tag=0)
    comm.send(0, np.array([1.0]), tag=1)
    return float(got[0])


def _prog_leak(comm: ProcessComm):
    # Injected leak: a big send nobody ever receives.
    big = np.full(80_000, float(comm.rank))
    if comm.rank == 0:
        comm.send(1, big, tag=42)  # rank 1 never posts this recv
    return comm.rank


def _prog_stalled(comm: ProcessComm):
    total = comm.allreduce(np.array([1.0]))
    return float(total[0])


class TestInjectedMismatches:
    def _expect(self, prog, size, rule, **kw):
        with pytest.raises(RankFailureError) as ei:
            run_spmd(prog, size, config=VERIFY, **kw)
        msg = str(ei.value)
        assert rule in msg, msg
        return msg

    def test_wrong_root_raises_mismatch(self):
        msg = self._expect(
            _prog_wrong_root, 3, "SPMD201", collective_timeout=15
        )
        assert "CollectiveMismatchError" in msg
        assert "root=0" in msg and "root=1" in msg
        assert "_prog_wrong_root" in msg  # both call sites named

    def test_skipped_collective_raises_divergence(self):
        msg = self._expect(
            _prog_skip, 3, "SPMD202", collective_timeout=4
        )
        assert "never submitted a signature" in msg

    def test_reordered_collective_raises_divergence(self):
        msg = self._expect(
            _prog_reorder, 2, "SPMD202", collective_timeout=15
        )
        assert "allreduce" in msg and "barrier" in msg

    def test_shape_mismatch_raises(self):
        msg = self._expect(
            _prog_shape_mismatch, 2, "SPMD201", collective_timeout=15
        )
        assert "shape" in msg

    def test_deadlock_cycle_reported_fast(self):
        start = time.monotonic()
        msg = self._expect(
            _prog_deadlock, 2, "SPMD203", collective_timeout=60
        )
        elapsed = time.monotonic() - start
        assert "DeadlockError" in msg
        assert "wait-for cycle" in msg
        assert "rank 0" in msg and "rank 1" in msg
        # The whole point: the cycle is *reported*, not timed out.
        assert elapsed < 30

    def test_use_after_release_raises_211(self):
        msg = self._expect(
            _prog_use_after_release, 2, "SPMD211", collective_timeout=10
        )
        assert "in flight" in msg

    def test_double_release_raises_212(self):
        msg = self._expect(
            _prog_double_release, 2, "SPMD212", collective_timeout=10
        )
        assert "released twice" in msg

    def test_leak_at_exit_raises_213(self):
        msg = self._expect(_prog_leak, 2, "SPMD213", collective_timeout=10)
        assert "leak" in msg


class TestCleanRunsUnperturbed:
    def test_bit_and_trace_identical(self):
        plain = run_spmd(_prog_clean, 4)
        verified = run_spmd(_prog_clean, 4, config=VERIFY)
        for p, v in zip(plain, verified):
            np.testing.assert_array_equal(p["total"], v["total"])
            np.testing.assert_array_equal(p["payload"], v["payload"])
            np.testing.assert_array_equal(p["part"], v["part"])
            np.testing.assert_array_equal(p["gathered"], v["gathered"])
            # Control traffic is counter-neutral: certified trace
            # counters must not move.
            assert p["trace"] == v["trace"]

    def test_disjoint_subgroups_verify(self):
        out = run_spmd(_prog_subgroups, 4, config=VERIFY)
        assert out == [2.0, 2.0, 2.0, 2.0]

    def test_single_rank_verify(self):
        out = run_spmd(_prog_stalled, 1, config=VERIFY)
        assert out == [1.0]

    def test_injected_stall_is_not_a_deadlock(self):
        # A 2 s delay holds rank 1 past the probe threshold; the board
        # shows rank 0 waiting on a *running* rank — no cycle, no
        # false positive.
        from repro.vmpi.faults import FaultPlan

        cfg = CommConfig(
            verify=True, fault_plan=FaultPlan.stall(1, 2.0, op_index=1)
        )
        out = run_spmd(_prog_stalled, 2, config=cfg)
        assert out == [2.0, 2.0]


def _prog_sanitizer_probe(comm: ProcessComm):
    # verify=True on a non-shm wire: signature matching stays armed,
    # the shm-lifecycle sanitizer must not (there is no pool to audit).
    return {
        "verifying": comm._vrt is not None,
        "sanitizer_off": comm._t.sanitizer is None,
        "total": float(comm.allreduce(np.array([1.0]))[0]),
    }


@pytest.mark.transport_matrix
class TestVerifyOnTcp:
    """``CommConfig(verify=True)`` degrades gracefully off-shm: the
    signature matcher and deadlock detector keep working over sockets,
    while the shm-lifecycle sanitizer (SPMD211–213) is skipped."""

    def test_clean_run_bit_and_trace_identical(self):
        plain = run_spmd(_prog_clean, 4, transport="tcp")
        verified = run_spmd(_prog_clean, 4, transport="tcp", config=VERIFY)
        for p, v in zip(plain, verified):
            np.testing.assert_array_equal(p["total"], v["total"])
            np.testing.assert_array_equal(p["payload"], v["payload"])
            np.testing.assert_array_equal(p["part"], v["part"])
            np.testing.assert_array_equal(p["gathered"], v["gathered"])
            assert p["trace"] == v["trace"]

    def test_sanitizer_skipped_signature_matching_kept(self):
        out = run_spmd(
            _prog_sanitizer_probe, 2, transport="tcp", config=VERIFY
        )
        for report in out:
            assert report["verifying"]
            assert report["sanitizer_off"]
            assert report["total"] == 2.0

    def test_signature_mismatch_detected(self):
        with pytest.raises(RankFailureError) as ei:
            run_spmd(
                _prog_wrong_root,
                3,
                transport="tcp",
                config=VERIFY,
                collective_timeout=15,
            )
        msg = str(ei.value)
        assert "SPMD201" in msg
        assert "CollectiveMismatchError" in msg

    def test_deadlock_cycle_reported_fast(self):
        start = time.monotonic()
        with pytest.raises(RankFailureError) as ei:
            run_spmd(
                _prog_deadlock,
                2,
                transport="tcp",
                config=VERIFY,
                collective_timeout=60,
            )
        msg = str(ei.value)
        assert "SPMD203" in msg
        assert "wait-for cycle" in msg
        assert time.monotonic() - start < 30


class TestVerifyWithHostMap:
    """``verify=True`` with ranks hosted as threads: each hosted rank's
    control rounds ride its own stream, and the wait-for board has one
    slot per logical rank."""

    HOST_MAP = [[0], [1, 2]]

    def test_clean_run_bit_and_trace_identical(self, backend):
        plain = run_spmd(_prog_clean, 3, transport=backend)
        verified = run_spmd(
            _prog_clean, 3, transport=backend, config=VERIFY,
            host_map=self.HOST_MAP,
        )
        for p, v in zip(plain, verified):
            np.testing.assert_array_equal(p["total"], v["total"])
            np.testing.assert_array_equal(p["payload"], v["payload"])
            np.testing.assert_array_equal(p["part"], v["part"])
            np.testing.assert_array_equal(p["gathered"], v["gathered"])
            assert p["trace"] == v["trace"]

    def test_wrong_root_raises_mismatch(self, backend):
        with pytest.raises(RankFailureError) as ei:
            run_spmd(
                _prog_wrong_root, 3, transport=backend, config=VERIFY,
                collective_timeout=15, host_map=self.HOST_MAP,
            )
        msg = str(ei.value)
        assert "SPMD201" in msg
        assert "CollectiveMismatchError" in msg


class TestVerifiedDrivers:
    def test_mp_hooi_dt_verify_smoke(self):
        # The CI smoke: a 2x2 grid sweep under full verification must
        # produce the same factorization as the plain run.
        from repro.distributed.mp_hooi import mp_hooi_dt
        from repro.tensor.random import tucker_plus_noise

        x = tucker_plus_noise((12, 10, 8), (3, 2, 2), noise=1e-4, seed=0)
        plain, _ = mp_hooi_dt(x, (3, 2, 2), (2, 2, 1))
        checked, _ = mp_hooi_dt(x, (3, 2, 2), (2, 2, 1), comm_config=VERIFY)
        assert np.array_equal(plain.core, checked.core)
        assert all(
            np.array_equal(a, b)
            for a, b in zip(plain.factors, checked.factors)
        )

    def test_mp_sthosvd_verify_smoke(self):
        from repro.distributed.mp_sthosvd import mp_sthosvd
        from repro.tensor.random import tucker_plus_noise

        x = tucker_plus_noise((12, 10, 8), (3, 2, 2), noise=1e-4, seed=1)
        plain = mp_sthosvd(x, (2, 2, 1), ranks=(3, 2, 2))
        checked = mp_sthosvd(
            x, (2, 2, 1), ranks=(3, 2, 2), comm_config=VERIFY
        )
        assert np.array_equal(plain.core, checked.core)
