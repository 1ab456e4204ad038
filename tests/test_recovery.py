"""Elastic in-run failure recovery (``repro.distributed.recovery``).

The contract under test: a seeded hard crash mid-sweep, under
``CommConfig(recovery="respawn")``, completes the run with factors
*bit-identical* to the fault-free baseline, on both transport wires,
leaving no shm residue — plus unit coverage for the pieces (buddy
replication, survivor reports on EOF, and ``repro resume``
validation).
"""

import dataclasses
import glob
import os

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
from repro.vmpi.transport import TransportClosedError


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
        assert event.failed == (1,)
        assert event.relaunch_seconds > 0
        # Rank 0 survived, so the continuation starts from its own
        # snapshot, the only one that carries rank 0's history.
        assert event.source == "own snapshot of rank 0"
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

    @pytest.mark.parametrize("victim", [0, 3])
    def test_rahosi_respawn(self, small3, backend, victim):
        opts = RankAdaptiveOptions(seed=3, max_iters=4)
        base, base_stats = mp_rahosi_dt(
            small3, 0.4, (2, 2, 2), (2, 2, 1), opts, transport=backend
        )
        cfg = CommConfig(
            fault_plan=FaultPlan.kill(victim, op_index=25),
            recovery="respawn",
            collective_timeout=15.0,
        )
        out, stats = mp_rahosi_dt(
            small3, 0.4, (2, 2, 2), (2, 2, 1), opts,
            comm_config=cfg, transport=backend,
        )
        _assert_tucker_equal(out, base)
        # RNG state rode the snapshot: the resumed expand_factor draws
        # matched the uninterrupted run's (asserted by bit-identity),
        # and the recovery resumed from a post-growth boundary.
        assert stats.recovery_events[0].resumed_iteration >= 1
        # Only rank 0 keeps the history; the continuation must resume
        # from rank 0's state whichever rank died.
        assert _history_sans_seconds(stats) == _history_sans_seconds(
            base_stats
        )


def _history_sans_seconds(stats) -> list[dict]:
    rows = [dataclasses.asdict(rec) for rec in stats.history]
    for row in rows:
        del row["seconds"]
    return rows


class TestElasticEightRanks:
    """A 2×2×2 world: rank 0's death leaves seven survivors, and each
    one's EOF must wake the peers still waiting on it."""

    def test_kill_rank_zero(self, backend):
        x = np.random.default_rng(0).standard_normal((12, 10, 8))
        opts = HOOIOptions(max_iters=4, seed=1)
        base, _ = mp_hooi_dt(
            x, (3, 3, 2), (2, 2, 2), opts, transport=backend
        )
        cfg = CommConfig(
            fault_plan=FaultPlan.kill(0, op_index=20),
            recovery="respawn",
            collective_timeout=15.0,
        )
        tucker, stats = mp_hooi_dt(
            x, (3, 3, 2), (2, 2, 2), opts,
            comm_config=cfg, transport=backend,
        )
        _assert_tucker_equal(tucker, base)
        (event,) = stats.recovery_events
        assert event.failed == (0,)
        assert event.reporters == (1, 2, 3, 4, 5, 6, 7)
        assert _shm_residue() == []


# ---------------------------------------------------------------------------
# pieces: replication, survivor reports, run_elastic policies
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


def _prog_exit_in_barrier(comm: ProcessComm) -> object:
    """Rank 2 exits hard; the others wait in a barrier, so each one
    reports after its own wait hits an EOF — the dead rank's, or that
    of a survivor that reported first."""
    if comm.rank == 2:
        os._exit(77)
    comm.barrier()


def _prog_peer_closed(comm: ProcessComm, _resume) -> None:
    raise TransportClosedError("unit: always fails")


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

    def test_survivors_report_on_eof(self):
        cfg = CommConfig(recovery="respawn", collective_timeout=10.0)
        with pytest.raises(RankFailureError) as err:
            run_spmd(_prog_exit_in_barrier, 4, config=cfg)
        assert sorted(err.value.recovery_reports) == [0, 1, 3]
        assert err.value.failed_ranks == (2,)

    def test_run_elastic_without_replicas_reraises(self):
        # Survivor reports exist but no boundary was ever replicated
        # (iteration -1, no blob): run_elastic must re-raise rather
        # than resume from nothing.
        with pytest.raises(RankFailureError):
            run_elastic(
                _prog_peer_closed, 2, None,
                config=CommConfig(recovery="respawn", collective_timeout=5.0),
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
