"""Elastic in-run failure recovery (``repro.distributed.recovery``).

The contract under test: a seeded hard crash mid-sweep, under
``CommConfig(recovery="respawn")``, completes the run with factors
*bit-identical* to the fault-free baseline, on both transport wires,
leaving no shm residue — plus unit coverage for the pieces (buddy
replication, revoke-and-agree, and ``repro resume`` validation).
"""

import glob

import numpy as np
import pytest

import repro.cli as cli
from repro.core.errors import CheckpointError, ConfigError
from repro.core.hooi import HOOIOptions
from repro.core.rank_adaptive import RankAdaptiveOptions
from repro.distributed.checkpoint import SweepCheckpoint
from repro.distributed.mp_hooi import mp_hooi_dt, mp_rahosi_dt
from repro.distributed.mp_sthosvd import mp_sthosvd
from repro.distributed.recovery import RecoveryEvent, run_elastic
from repro.vmpi.faults import FaultPlan
from repro.vmpi.mp_comm import (
    CommConfig,
    ProcessComm,
    RankFailureError,
    run_spmd,
)
from repro.vmpi.transport import WorldRevokedError


def _shm_residue() -> list[str]:
    return glob.glob("/dev/shm/mpx*")


def _assert_tucker_equal(a, b) -> None:
    np.testing.assert_array_equal(a.core, b.core)
    assert len(a.factors) == len(b.factors)
    for u, v in zip(a.factors, b.factors):
        np.testing.assert_array_equal(u, v)


# ---------------------------------------------------------------------------
# the acceptance bar: crash mid-sweep, recover, bit-identical factors
# ---------------------------------------------------------------------------


class TestElasticBitIdentity:
    """Seeded ``crash(hard=True)`` mid-sweep into mp_hooi_dt on both
    wires — factors must equal the fault-free run's."""

    _OPTS = HOOIOptions(max_iters=3, seed=1)

    @pytest.fixture(scope="class")
    def x(self):
        return np.random.default_rng(0).standard_normal((8, 9, 7))

    @pytest.fixture(scope="class")
    def baseline(self, x):
        tucker, _ = mp_hooi_dt(x, (3, 3, 2), (2, 2, 1), self._OPTS)
        return tucker

    def test_hard_crash_mid_sweep(self, backend, x, baseline):
        cfg = CommConfig(
            fault_plan=FaultPlan.kill(1, op_index=11),
            recovery="respawn",
            collective_timeout=15.0,
        )
        tucker, stats = mp_hooi_dt(
            x, (3, 3, 2), (2, 2, 1), self._OPTS,
            comm_config=cfg, transport=backend,
        )
        _assert_tucker_equal(tucker, baseline)
        (event,) = stats.recovery_events
        assert isinstance(event, RecoveryEvent)
        assert event.policy == "respawn"
        assert event.failed == (1,)
        assert event.relaunch_seconds > 0
        assert "rank 1" in event.source
        assert _shm_residue() == []

    def test_late_sweep_crash_resumes_mid_run(self, x, baseline):
        # op 40 lands in sweep 3 of 3: the continuation must restart
        # from the iteration-2 buddy replica, not from scratch.
        cfg = CommConfig(
            fault_plan=FaultPlan.kill(2, op_index=40),
            recovery="respawn",
            collective_timeout=15.0,
        )
        tucker, stats = mp_hooi_dt(
            x, (3, 3, 2), (2, 2, 1),
            HOOIOptions(max_iters=4, seed=1), comm_config=cfg,
        )
        base4, _ = mp_hooi_dt(
            x, (3, 3, 2), (2, 2, 1), HOOIOptions(max_iters=4, seed=1)
        )
        _assert_tucker_equal(tucker, base4)
        (event,) = stats.recovery_events
        assert event.resumed_iteration == 2

    def test_soft_crash_recovers_too(self, x, baseline):
        cfg = CommConfig(
            fault_plan=FaultPlan.kill(1, op_index=11, hard=False),
            recovery="respawn",
            collective_timeout=15.0,
        )
        tucker, stats = mp_hooi_dt(
            x, (3, 3, 2), (2, 2, 1), self._OPTS, comm_config=cfg
        )
        _assert_tucker_equal(tucker, baseline)
        assert stats.recovery_events[0].failed == (1,)

    def test_overlap_crash_recovers(self, x, baseline):
        # Satellite: peer death while the prefetch pipeline is armed —
        # recovery must still converge (no leaked in-flight slot).
        cfg = CommConfig(
            fault_plan=FaultPlan.kill(1, op_index=11),
            recovery="respawn",
            overlap=True,
            eager_max_words=64,
            collective_timeout=15.0,
        )
        tucker, _ = mp_hooi_dt(
            x, (3, 3, 2), (2, 2, 1), self._OPTS, comm_config=cfg
        )
        _assert_tucker_equal(tucker, baseline)

    def test_restart_policy_still_raises(self, x):
        cfg = CommConfig(
            fault_plan=FaultPlan.kill(1, op_index=11),
            collective_timeout=10.0,
        )
        with pytest.raises(RankFailureError):
            mp_hooi_dt(
                x, (3, 3, 2), (2, 2, 1), self._OPTS, comm_config=cfg
            )


class TestElasticOtherDrivers:
    def test_sthosvd_respawn(self, small3):
        base = mp_sthosvd(small3, (2, 1, 2), ranks=(3, 3, 2))
        cfg = CommConfig(
            fault_plan=FaultPlan.kill(1, op_index=6),
            recovery="respawn",
            collective_timeout=15.0,
        )
        out = mp_sthosvd(
            small3, (2, 1, 2), ranks=(3, 3, 2), comm_config=cfg
        )
        _assert_tucker_equal(out, base)

    def test_rahosi_respawn(self, small3, backend):
        opts = RankAdaptiveOptions(seed=3, max_iters=4)
        base, _ = mp_rahosi_dt(
            small3, 0.4, (2, 2, 2), (2, 2, 1), opts, transport=backend
        )
        cfg = CommConfig(
            fault_plan=FaultPlan.kill(3, op_index=25),
            recovery="respawn",
            collective_timeout=15.0,
        )
        out, stats = mp_rahosi_dt(
            small3, 0.4, (2, 2, 2), (2, 2, 1), opts,
            comm_config=cfg, transport=backend,
        )
        _assert_tucker_equal(out, base)
        # RNG state rode the replica: the resumed expand_factor draws
        # matched the uninterrupted run's (asserted by bit-identity),
        # and the recovery resumed from a post-growth boundary.
        assert stats.recovery_events[0].resumed_iteration >= 1


# ---------------------------------------------------------------------------
# pieces: replication, agreement, run_elastic policies
# ---------------------------------------------------------------------------


def _prog_replicate(comm: ProcessComm) -> tuple:
    """Replicate one boundary, return what this rank holds."""
    ck = SweepCheckpoint(
        algorithm="unit",
        iteration=5,
        shape=(4,),
        grid_dims=(comm.size,),
        ranks=(2,),
        factors=[np.full((4, 2), float(comm.rank))],
        extra={"world_size": comm.size, "backend": comm._t.kind},
    )
    mgr = comm.recovery_mgr
    mgr.replicate(ck)
    replica = SweepCheckpoint.from_bytes(mgr.replica_bytes)
    return mgr.buddy, mgr.protects, mgr.iteration, replica.factors[0][0, 0]


def _prog_agree(comm: ProcessComm) -> object:
    """Rank 2 dies hard; survivors revoke, agree, self-extract (the
    raised revoke routes each one through its RecoveryManager)."""
    if comm.rank == 2:
        import os

        os._exit(77)
    raise WorldRevokedError("unit: peer death", failed=(2,))


def _prog_revoke_all(comm: ProcessComm, _resume) -> None:
    raise WorldRevokedError("unit: always fails", failed=())


class TestRecoveryPieces:
    def test_buddy_ring_replication(self, backend):
        cfg = CommConfig(recovery="respawn", collective_timeout=15.0)
        outs = run_spmd(
            _prog_replicate, 3, config=cfg, transport=backend
        )
        for rank, (buddy, protects, it, val) in enumerate(outs):
            assert buddy == (rank + 1) % 3
            assert protects == (rank - 1) % 3
            assert it == 5
            # the replica this rank holds is its predecessor's state
            assert val == float(protects)

    def test_agreement_converges(self):
        cfg = CommConfig(
            recovery="respawn",
            collective_timeout=10.0,
            agree_timeout=1.0,
        )
        with pytest.raises(RankFailureError) as err:
            run_spmd(_prog_agree, 4, config=cfg)
        reports = err.value.recovery_reports
        # every survivor self-extracted with the same failed set
        assert sorted(reports) == [0, 1, 3]
        assert all(rep["failed"] == [2] for rep in reports.values())
        assert err.value.failed_ranks == (2,)

    def test_run_elastic_without_replicas_reraises(self):
        # Survivor reports exist but no boundary was ever replicated
        # (iteration -1, no blob): run_elastic must re-raise rather
        # than resume from nothing.
        with pytest.raises(RankFailureError):
            run_elastic(
                _prog_revoke_all, 2, None, resume_slot=1,
                config=CommConfig(
                    recovery="respawn",
                    collective_timeout=5.0,
                    agree_timeout=0.5,
                ),
                timeout=60.0,
            )

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="recovery"):
            run_spmd(
                _prog_replicate, 2,
                config=CommConfig(recovery="migrate"),
            )


# ---------------------------------------------------------------------------
# satellites: resume validation
# ---------------------------------------------------------------------------


class TestResumeValidation:
    def _checkpoint(self, tmp_path, **extra):
        ck = SweepCheckpoint(
            algorithm="mp_sthosvd",
            iteration=1,
            shape=(6, 5, 4),
            grid_dims=(2, 1, 1),
            ranks=(3,),
            factors=[np.eye(6)[:, :3]],
            extra=extra,
        )
        path = tmp_path / "ck.npz"
        ck.save(path)
        return path

    def _params(self, tmp_path, grid="2 1 1"):
        p = tmp_path / "params.txt"
        p.write_text(
            "Global dims = 6 5 4\n"
            "Ranks = 3 3 2\n"
            f"Processor grid dims = {grid}\n"
        )
        return p

    def test_grid_mismatch_fails_actionably(self, tmp_path):
        path = self._checkpoint(tmp_path, world_size=2, backend="shm")
        params = self._params(tmp_path, grid="1 2 1")
        with pytest.raises(ConfigError, match="processor grid"):
            cli.resume_main(
                [str(path), "--parameter-file", str(params)]
            )

    def test_backend_mismatch_fails_actionably(self, tmp_path):
        path = self._checkpoint(tmp_path, world_size=2, backend="shm")
        params = self._params(tmp_path)
        with pytest.raises(ConfigError, match="backend"):
            cli.resume_main(
                [
                    str(path), "--parameter-file", str(params),
                    "--backend", "tcp",
                ]
            )

    def test_inconsistent_world_size_fails(self, tmp_path):
        path = self._checkpoint(tmp_path, world_size=7, backend="shm")
        params = self._params(tmp_path)
        with pytest.raises(ConfigError, match="world size"):
            cli.resume_main(
                [str(path), "--parameter-file", str(params)]
            )

    def test_matching_metadata_resumes(self, tmp_path, small3):
        # End-to-end: a real elastic-format checkpoint (world_size +
        # backend recorded) resumes cleanly through the CLI.
        base = mp_sthosvd(small3, (2, 1, 1), ranks=(3, 3, 2))
        ck_path = tmp_path / "real.npz"
        with pytest.raises(RankFailureError):
            mp_sthosvd(
                small3, (2, 1, 1), ranks=(3, 3, 2),
                checkpoint_path=str(ck_path),
                comm_config=CommConfig(
                    fault_plan=FaultPlan.kill(1, op_index=8),
                    collective_timeout=10.0,
                ),
            )
        ck = SweepCheckpoint.load(ck_path)
        assert ck.extra["world_size"] == 2
        assert ck.extra["backend"] == "shm"
        out = mp_sthosvd(
            small3, (2, 1, 1), ranks=(3, 3, 2),
            resume_from=str(ck_path),
        )
        _assert_tucker_equal(out, base)
