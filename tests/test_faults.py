"""Fault injection, fast failure detection, and guard rails.

Certifies the robustness contract of the SPMD layer: a seeded
``FaultPlan`` reproduces every failure mode deterministically, a dead
rank aborts the job in seconds (not the full run timeout) with its
identity and remote traceback in the error, shared memory is swept on
every exit path, and the numerics guard rails catch corrupted data at
the collective where it first appears.

Injection happens at the Transport payload boundary (before wire
encoding), so the same seeded plan must behave identically on the
pooled-shm and tcp wires; ``TestTcpWireFaults`` certifies that, plus
retry-with-backoff and checkpoint/restart over sockets.  The
torn-frame/partial-recv failure mode (a peer dying mid-frame) is
covered at the unit level in ``test_transport.py`` and at the job
level by the tcp rows of ``TestCrashDetection``.
"""

import glob
import os
import time

import numpy as np
import pytest

from repro.core.errors import NumericalFaultError
from repro.distributed.kernels import check_factor_orthogonality
from repro.vmpi.faults import (
    EXIT_INJECTED_CRASH,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedRankCrash,
)
from repro.vmpi.mp_comm import (
    CommConfig,
    ProcessComm,
    RankFailureError,
    run_spmd,
)

# Module-level SPMD programs (must be picklable).


def _prog_rounds(comm: ProcessComm, n: int = 6) -> np.ndarray:
    out = np.zeros(8)
    for _ in range(n):
        comm.phase = "sweep"
        out = out + comm.allreduce(np.arange(8.0) + comm.rank)
    return out


def _prog_subgroup(comm: ProcessComm) -> float:
    group = tuple(r for r in range(comm.size) if r % 2 == comm.rank % 2)
    total = comm.allreduce(np.array([1.0]), group=group)
    return float(total[0])


def _prog_hard_exit(comm: ProcessComm) -> None:
    if comm.rank == 1:
        os._exit(77)  # dies without posting any result
    comm.allreduce(np.ones(4))


def _prog_nan(comm: ProcessComm) -> float:
    block = np.ones(4)
    if comm.rank == 0:
        block[2] = np.nan
    comm.phase = "gram"
    return float(comm.allreduce(block)[2])


def _prog_sleep(comm: ProcessComm) -> None:
    time.sleep(5.0)


def _prog_injector_off(comm: ProcessComm) -> bool:
    return comm._inj is None


def _prog_shm_clean(comm: ProcessComm) -> float:
    # 640 KB payloads force the pooled shared-memory path.
    big = np.full(80_000, float(comm.rank))
    out = comm.allreduce(big)
    out = comm.allreduce(out)
    return float(out[0])


def _prog_shm_raise(comm: ProcessComm) -> None:
    big = np.full(80_000, float(comm.rank))
    comm.allreduce(big)
    if comm.rank == 0:
        raise ValueError("mid-run boom")
    comm.allreduce(big)


def _fired_log(comm: ProcessComm, n: int = 3) -> list:
    for _ in range(n):
        comm.allreduce(np.ones(2))
    return list(comm._inj.fired) if comm._inj is not None else []


def _shm_residue() -> list[str]:
    return glob.glob("/dev/shm/mpx*")


class TestFaultSpecPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("explode", rank=0)

    def test_delay_needs_duration(self):
        with pytest.raises(ValueError, match="delay > 0"):
            FaultSpec("delay", rank=0)

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            FaultSpec("crash", rank=-1)

    def test_for_rank_filters(self):
        plan = FaultPlan(
            faults=(
                FaultSpec("crash", rank=1),
                FaultSpec("drop", rank=0, op_index=2),
            )
        )
        assert len(plan.for_rank(0)) == 1
        assert plan.for_rank(0)[0].kind == "drop"
        assert plan.for_rank(2) == ()

    def test_matches_trigger_point(self):
        spec = FaultSpec("crash", rank=1, op_index=3, phase="ttm")
        assert spec.matches(1, 3, "ttm")
        assert not spec.matches(1, 3, "gram")
        assert not spec.matches(1, 2, "ttm")
        assert not spec.matches(0, 3, "ttm")

    def test_plan_is_picklable(self):
        import pickle

        plan = FaultPlan.kill(1, op_index=4, phase="sweep")
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan

    def test_injected_crash_pickles_hard_flag(self):
        import pickle

        exc = pickle.loads(
            pickle.dumps(InjectedRankCrash("x", hard=False))
        )
        assert exc.hard is False


class TestInjectorUnit:
    def test_crash_fires_once_at_trigger(self):
        inj = FaultInjector(FaultPlan.kill(0, op_index=2), rank=0)
        inj.at_collective(1, "")
        with pytest.raises(InjectedRankCrash):
            inj.at_collective(2, "")
        assert inj.fired == [("crash", 2, "")]

    def test_count_limits_firings(self):
        plan = FaultPlan(faults=(FaultSpec("drop", rank=0, count=2),))
        inj = FaultInjector(plan, rank=0)
        inj.at_collective(1, "")
        drops = [inj.on_send(np.ones(2))[1] for _ in range(4)]
        assert drops == [True, True, False, False]

    def test_bitflip_is_seeded_deterministic(self):
        plan = FaultPlan(
            faults=(FaultSpec("bitflip", rank=0, op_index=1),), seed=9
        )
        payload = np.arange(16.0)
        flipped = []
        for _ in range(2):
            inj = FaultInjector(plan, rank=0)
            inj.at_collective(1, "")
            out, dropped = inj.on_send(payload.copy())
            assert not dropped
            flipped.append(out)
        np.testing.assert_array_equal(flipped[0], flipped[1])
        assert not np.array_equal(flipped[0], payload)
        # exactly one element changed by exactly one bit
        assert np.sum(flipped[0] != payload) == 1

    def test_bitflip_does_not_mutate_original(self):
        plan = FaultPlan(faults=(FaultSpec("bitflip", rank=0),))
        inj = FaultInjector(plan, rank=0)
        inj.at_collective(1, "")
        payload = np.arange(4.0)
        keep = payload.copy()
        inj.on_send(payload)
        np.testing.assert_array_equal(payload, keep)


@pytest.mark.parametrize(
    "transport",
    [
        "shm",
        pytest.param("tcp", marks=pytest.mark.transport_matrix),
    ],
)
class TestCrashDetection:
    def test_crash_fails_fast_with_identity_and_traceback(
        self, transport
    ):
        """The acceptance bar: a mid-sweep kill fails within 5 s and the
        error names the dead rank and carries its remote traceback."""
        cfg = CommConfig(fault_plan=FaultPlan.kill(1, op_index=3))
        t0 = time.monotonic()
        with pytest.raises(RankFailureError) as ei:
            run_spmd(_prog_rounds, 2, config=cfg, transport=transport)
        assert time.monotonic() - t0 < 5.0
        err = ei.value
        assert err.failed_ranks == (1,)
        msg = str(err)
        assert "rank 1" in msg
        assert "injected crash" in msg
        assert "collective #3" in msg
        assert "remote traceback" in msg
        assert "InjectedRankCrash" in msg

    def test_trace_tail_in_error(self, transport):
        cfg = CommConfig(fault_plan=FaultPlan.kill(0, op_index=4))
        with pytest.raises(RankFailureError) as ei:
            run_spmd(_prog_rounds, 2, config=cfg, transport=transport)
        msg = str(ei.value)
        # 3 completed collectives before the crash at #4.
        assert "last collectives" in msg
        assert "allreduce" in msg
        assert "phase=sweep" in msg


class TestFailureDetection:
    def test_dead_process_detected_by_exitcode(self):
        """A rank that dies without posting anything (no report, no
        sentinel) is detected by liveness polling, not the timeout."""
        t0 = time.monotonic()
        with pytest.raises(RankFailureError) as ei:
            run_spmd(_prog_hard_exit, 2, timeout=120)
        assert time.monotonic() - t0 < 5.0
        err = ei.value
        assert err.failed_ranks == (1,)
        assert err.exitcodes == {1: 77}
        assert "exitcode 77" in str(err)

    def test_injected_hard_crash_exitcode_constant(self):
        cfg = CommConfig(fault_plan=FaultPlan.kill(1, op_index=2))
        with pytest.raises(RankFailureError):
            run_spmd(_prog_rounds, 2, config=cfg)
        assert EXIT_INJECTED_CRASH == 86

    def test_succeeded_and_aborted_ranks_listed(self):
        """Disjoint subgroups: ranks 0/2 finish, rank 3 crashes softly,
        rank 1 (3's partner) is aborted."""
        cfg = CommConfig(
            fault_plan=FaultPlan.kill(3, op_index=1, hard=False)
        )
        with pytest.raises(RankFailureError) as ei:
            run_spmd(_prog_subgroup, 4, config=cfg)
        err = ei.value
        assert err.failed_ranks == (3,)
        assert set(err.succeeded_ranks) == {0, 2}
        assert err.aborted_ranks == (1,)
        msg = str(err)
        assert "[3] failed" in msg and "[0, 2] succeeded" in msg

    def test_timeout_path_message(self):
        t0 = time.monotonic()
        with pytest.raises(RankFailureError, match="timed out"):
            run_spmd(_prog_sleep, 2, timeout=1.0)
        # teardown (terminate + join) is bounded, not the 5 s sleep
        assert time.monotonic() - t0 < 4.0


class TestWireFaults:
    def test_dropped_send_kills_the_collective(self):
        plan = FaultPlan(faults=(FaultSpec("drop", rank=0, op_index=2),))
        cfg = CommConfig(fault_plan=plan, collective_timeout=1.5)
        with pytest.raises(RankFailureError) as ei:
            run_spmd(_prog_rounds, 2, config=cfg, timeout=60)
        assert "CollectiveTimeoutError" in str(ei.value)

    def test_bitflip_reproducible_across_runs(self):
        plan = FaultPlan(
            faults=(FaultSpec("bitflip", rank=0, op_index=2),), seed=3
        )
        cfg = CommConfig(fault_plan=plan)
        a = run_spmd(_prog_rounds, 2, config=cfg)
        b = run_spmd(_prog_rounds, 2, config=cfg)
        clean = run_spmd(_prog_rounds, 2)
        for r in range(2):  # seeded -> replayable
            np.testing.assert_array_equal(a[r], b[r])
        # the corrupted wire message reached at least one rank's result
        assert any(
            not np.array_equal(a[r], clean[r]) for r in range(2)
        )

    def test_delay_rides_out_with_retries(self):
        # A collective timeout longer than the 2.5 s stall rides it out.
        plan = FaultPlan.stall(0, 2.5, op_index=2)
        ok = run_spmd(
            _prog_rounds,
            2,
            config=CommConfig(fault_plan=plan, collective_timeout=15.0),
        )
        np.testing.assert_array_equal(ok[0], ok[1])

    def test_delay_without_retries_times_out(self):
        plan = FaultPlan.stall(0, 2.5, op_index=2)
        with pytest.raises(RankFailureError):
            run_spmd(
                _prog_rounds,
                2,
                config=CommConfig(
                    fault_plan=plan, collective_timeout=1.0
                ),
                timeout=60,
            )

    def test_fired_log_records_injections(self):
        plan = FaultPlan.stall(0, 0.01, op_index=2, phase="")
        out = run_spmd(_fired_log, 2, config=CommConfig(fault_plan=plan))
        assert out[0] == [("delay", 2, "")]
        assert out[1] == []


@pytest.mark.transport_matrix
class TestTcpWireFaults:
    """The seeded fault plans behave identically over sockets.

    Injection fires at the Transport payload boundary, before the wire
    encoding diverges, so a given plan must produce the *same*
    corrupted results on tcp as on shm — not merely "a" failure."""

    def test_dropped_send_kills_the_collective(self):
        plan = FaultPlan(faults=(FaultSpec("drop", rank=0, op_index=2),))
        cfg = CommConfig(fault_plan=plan, collective_timeout=1.5)
        with pytest.raises(RankFailureError) as ei:
            run_spmd(
                _prog_rounds, 2, config=cfg, transport="tcp", timeout=60
            )
        assert "CollectiveTimeoutError" in str(ei.value)

    def test_bitflip_identical_corruption_on_both_wires(self):
        plan = FaultPlan(
            faults=(FaultSpec("bitflip", rank=0, op_index=2),), seed=3
        )
        cfg = CommConfig(fault_plan=plan)
        shm = run_spmd(_prog_rounds, 2, config=cfg, transport="shm")
        tcp = run_spmd(_prog_rounds, 2, config=cfg, transport="tcp")
        clean = run_spmd(_prog_rounds, 2, transport="tcp")
        for r in range(2):
            np.testing.assert_array_equal(shm[r], tcp[r])
        assert any(
            not np.array_equal(tcp[r], clean[r]) for r in range(2)
        )

    def test_delay_rides_out_with_retries(self):
        plan = FaultPlan.stall(0, 2.5, op_index=2)
        ok = run_spmd(
            _prog_rounds,
            2,
            transport="tcp",
            config=CommConfig(fault_plan=plan, collective_timeout=15.0),
        )
        np.testing.assert_array_equal(ok[0], ok[1])

    def test_kill_and_resume_bit_identical(self, tmp_path):
        """Checkpoint/restart works unchanged over sockets: seeded kill
        mid-run, checkpoint written, tcp resume matches the clean tcp
        run (which itself matches shm bit-for-bit)."""
        from repro.distributed.checkpoint import SweepCheckpoint
        from repro.distributed.mp_sthosvd import mp_sthosvd

        rng = np.random.default_rng(11)
        x = rng.standard_normal((6, 5, 4, 4))
        kwargs = dict(ranks=(3, 3, 2, 2), timeout=120, transport="tcp")

        clean = mp_sthosvd(x, (2, 1, 1, 1), **kwargs)

        ck = str(tmp_path / "st.npz")
        plan = FaultPlan.kill(1, op_index=11)
        with pytest.raises(RankFailureError) as ei:
            mp_sthosvd(
                x, (2, 1, 1, 1),
                checkpoint_path=ck,
                comm_config=CommConfig(fault_plan=plan),
                **kwargs,
            )
        assert ei.value.failed_ranks == (1,)
        assert os.path.exists(ck)
        assert SweepCheckpoint.load(ck).algorithm == "mp_sthosvd"

        resumed = mp_sthosvd(x, (2, 1, 1, 1), resume_from=ck, **kwargs)
        np.testing.assert_array_equal(resumed.core, clean.core)
        for a, b in zip(resumed.factors, clean.factors):
            np.testing.assert_array_equal(a, b)


class TestGuardRails:
    def test_nan_screen_raises_typed_error(self):
        cfg = CommConfig(check_numerics=True)
        with pytest.raises(RankFailureError) as ei:
            run_spmd(_prog_nan, 2, config=cfg)
        msg = str(ei.value)
        assert "NumericalFaultError" in msg
        assert "non-finite" in msg
        assert "allreduce" in msg
        assert "phase 'gram'" in msg

    def test_nan_screen_off_by_default(self):
        out = run_spmd(_prog_nan, 2)
        assert np.isnan(out[0])

    def test_orthogonality_check_passes_orthonormal(self):
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((8, 3)))
        drift = check_factor_orthogonality(q, mode=1, rank=0, tol=1e-8)
        assert drift < 1e-10

    def test_orthogonality_check_catches_drift(self):
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((8, 3)))
        q[0, 0] += 1e-3
        with pytest.raises(NumericalFaultError) as ei:
            check_factor_orthogonality(
                q, mode=2, rank=5, tol=1e-8, phase="llsv"
            )
        assert ei.value.mode == 2
        assert ei.value.rank == 5
        assert ei.value.phase == "llsv"
        assert "mode-2" in str(ei.value)

    def test_injection_disabled_means_no_injector(self):
        out = run_spmd(_prog_injector_off, 2)
        assert out == [True, True]

    def test_plan_for_other_rank_means_no_injector(self):
        cfg = CommConfig(fault_plan=FaultPlan.kill(7))
        out = run_spmd(_prog_injector_off, 2, config=cfg)
        assert out == [True, True]


@pytest.mark.parametrize("transport", ["shm"])
class TestShmHygiene:
    def test_clean_run_leaves_no_residue(self, transport):
        before = set(_shm_residue())
        run_spmd(_prog_shm_clean, 2, transport=transport)
        assert set(_shm_residue()) <= before

    def test_mid_collective_raise_leaves_no_residue(self, transport):
        before = set(_shm_residue())
        with pytest.raises(RankFailureError, match="mid-run boom"):
            run_spmd(
                _prog_shm_raise,
                2,
                transport=transport,
                collective_timeout=2.0,
                timeout=60,
            )
        assert set(_shm_residue()) <= before

    def test_hard_crash_leaves_no_residue(self, transport):
        """An os._exit'ed rank orphans its segments (no channel.close);
        the launcher's token sweep must reclaim them."""
        before = set(_shm_residue())
        # Kill at op 2: rank 1 already holds pooled segments from the
        # first big allreduce, and os._exit skips channel.close().
        cfg = CommConfig(fault_plan=FaultPlan.kill(1, op_index=2))
        with pytest.raises(RankFailureError):
            run_spmd(_prog_shm_clean, 2, transport=transport, config=cfg)
        assert set(_shm_residue()) <= before
