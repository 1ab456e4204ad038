"""Real process-parallel mini-MPI and process-parallel STHOSVD.

The ``TestRunSPMD`` cases take the ``backend`` fixture (conftest) and
run once per transport wire — pooled shared memory and TCP sockets —
so the core collective semantics, subgrouping, failure surfacing, and
timeout plumbing are certified on both.  ``TestTimeoutHygiene``'s shm
segment-release test stays shm-only by construction (it inspects the
pool internals)."""

import time

import numpy as np
import pytest

from repro.core.sthosvd import sthosvd
from repro.distributed.mp_sthosvd import mp_sthosvd
from repro.observability.telemetry import TelemetryMonitor
from repro.tensor.random import tucker_plus_noise
from repro.vmpi.mp_comm import CommConfig, ProcessComm, run_spmd

# Module-level SPMD programs (must be picklable).


def _prog_allreduce(comm: ProcessComm) -> float:
    block = np.full((2, 2), float(comm.rank + 1))
    total = comm.allreduce(block)
    return float(total[0, 0])


def _prog_reduce_scatter(comm: ProcessComm) -> np.ndarray:
    block = np.arange(8.0) + comm.rank
    return comm.reduce_scatter(block, axis=0)


def _prog_allgather(comm: ProcessComm) -> np.ndarray:
    return comm.allgather(np.array([float(comm.rank)]), axis=0)


def _prog_bcast(comm: ProcessComm) -> float:
    payload = np.array([42.0]) if comm.rank == 1 else None
    return float(comm.bcast(payload, root=1)[0])


def _prog_gather(comm: ProcessComm) -> int:
    out = comm.gather(np.array([comm.rank]), root=0)
    if comm.rank == 0:
        return sum(int(b[0]) for b in out)
    assert out is None
    return -1


def _prog_subgroup(comm: ProcessComm) -> float:
    # Two disjoint groups: even and odd ranks.
    group = tuple(
        r for r in range(comm.size) if r % 2 == comm.rank % 2
    )
    total = comm.allreduce(np.array([1.0]), group=group)
    return float(total[0])


def _prog_fail(comm: ProcessComm) -> None:
    if comm.rank == 1:
        raise ValueError("boom")


def _prog_config_timeout(comm: ProcessComm) -> float:
    return float(comm.config.collective_timeout)


def _prog_timeout_purge(comm: ProcessComm) -> dict:
    """Rank 0 parks shm segments (pooled + in-flight) and then times
    out on a recv that never comes; the exception path must unlink all
    of them."""
    import glob

    from repro.vmpi.mp_comm import CollectiveTimeoutError

    big = np.full(80_000, float(comm.rank))  # 640 KB -> shm path
    if comm.rank == 0:
        # One segment that completes the round trip (lands in the free
        # pool once the ack returns) and one that stays in flight.
        comm.send(1, big, tag=0)
        comm.send(1, big, tag=1)
        comm.recv(1, tag=0)  # ack for tag 0 definitely processed
        owned_before = len(comm._t._owned)
        timed_out = False
        try:
            comm.recv(1, tag=99)  # never sent
        except CollectiveTimeoutError:
            timed_out = True
        leftover = glob.glob(f"/dev/shm/mpx{comm._t._run_token}r0*")
        return {
            "timed_out": timed_out,
            "owned_before": owned_before,
            "owned_after": len(comm._t._owned),
            "leftover": leftover,
        }
    got0 = comm.recv(0, tag=0)
    got1 = comm.recv(0, tag=1)
    comm.send(0, np.array([1.0]), tag=0)
    # Stay alive past rank 0's timeout so queues do not tear down early.
    time.sleep(2.5)
    return {"sum": float(got0[0] + got1[0])}


class TestRunSPMD:
    def test_allreduce(self, backend):
        out = run_spmd(_prog_allreduce, 3, transport=backend)
        assert out == [6.0, 6.0, 6.0]  # 1+2+3

    def test_reduce_scatter(self, backend):
        out = run_spmd(_prog_reduce_scatter, 2, transport=backend)
        total = np.arange(8.0) * 2 + 1  # rank0 + rank1
        np.testing.assert_allclose(out[0], total[:4])
        np.testing.assert_allclose(out[1], total[4:])

    def test_allgather(self, backend):
        out = run_spmd(_prog_allgather, 3, transport=backend)
        for o in out:
            np.testing.assert_array_equal(o, [0.0, 1.0, 2.0])

    def test_bcast(self, backend):
        out = run_spmd(_prog_bcast, 3, transport=backend)
        assert out == [42.0, 42.0, 42.0]

    def test_gather(self, backend):
        out = run_spmd(_prog_gather, 3, transport=backend)
        assert out[0] == 0 + 1 + 2
        assert out[1] == out[2] == -1

    def test_disjoint_subgroups(self, backend):
        out = run_spmd(_prog_subgroup, 4, transport=backend)
        assert out == [2.0, 2.0, 2.0, 2.0]

    def test_single_rank(self, backend):
        assert run_spmd(_prog_allreduce, 1, transport=backend) == [1.0]

    def test_worker_failure_surfaced(self, backend):
        with pytest.raises(RuntimeError, match="boom"):
            run_spmd(_prog_fail, 2, transport=backend)

    def test_failure_carries_remote_traceback_and_rank_sets(self, backend):
        from repro.vmpi.mp_comm import RankFailureError

        with pytest.raises(RankFailureError) as ei:
            run_spmd(_prog_fail, 2, transport=backend)
        err = ei.value
        assert err.failed_ranks == (1,)
        assert 1 not in err.succeeded_ranks
        msg = str(err)
        assert "rank 1 failed" in msg
        assert "ValueError('boom')" in msg
        # the *remote* frame, not the launcher's
        assert "rank 1 remote traceback" in msg
        assert "_prog_fail" in msg
        assert 'raise ValueError("boom")' in msg

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            run_spmd(_prog_allreduce, 0)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            # The message names the transports that are accepted.
            ({"transport": "star"}, r"'star'.*'p2p', 'shm', 'tcp'"),
            ({"host_map": [[0]]}, "host_map must partition"),
            (
                {"host_map": [[0], [1]], "config": CommConfig(verify=True)},
                "host_map is incompatible with verify",
            ),
            ({"config": CommConfig(recovery="bogus")}, "recovery policy"),
        ],
        ids=["transport", "host_map", "host_map-verify", "recovery"],
    )
    def test_rejected_call_logs_nothing(self, kwargs, match):
        """Arguments are validated before any side effect: a rejected
        call leaves no ``run`` event (or anything else) in the
        monitor."""
        mon = TelemetryMonitor()
        with pytest.raises(ValueError, match=match):
            run_spmd(_prog_allreduce, 2, monitor=mon, **kwargs)
        assert list(mon.events) == []

    def test_unpicklable_program_logs_nothing(self):
        mon = TelemetryMonitor()
        with pytest.raises(Exception, match="pickle"):
            run_spmd(lambda comm: None, 2, monitor=mon)
        assert list(mon.events) == []


class TestTimeoutHygiene:
    def test_collective_timeout_configurable(self, backend):
        out = run_spmd(
            _prog_config_timeout,
            2,
            transport=backend,
            collective_timeout=7.5,
        )
        assert out == [7.5, 7.5]

    def test_config_object_timeout(self):
        out = run_spmd(
            _prog_config_timeout, 2, config=CommConfig(collective_timeout=9.0)
        )
        assert out == [9.0, 9.0]

    def test_shorthand_overrides_config(self):
        out = run_spmd(
            _prog_config_timeout,
            2,
            config=CommConfig(collective_timeout=9.0),
            collective_timeout=3.0,
        )
        assert out == [3.0, 3.0]

    def test_timeout_releases_shm_segments(self):
        """A timed-out rank unlinks every pooled and in-flight segment
        it owns — no ``/dev/shm`` leak for embedders that drive the
        transport without ``run_spmd``'s run-token sweep."""
        out = run_spmd(_prog_timeout_purge, 2, collective_timeout=1.0)
        report = out[0]
        assert report["timed_out"]
        assert report["owned_before"] >= 1  # segments were actually parked
        assert report["owned_after"] == 0
        assert report["leftover"] == []
        assert out[1]["sum"] == 0.0  # rank 1 received both payloads


class TestMPSTHOSVD:
    @pytest.mark.parametrize("dims", [(1, 1, 1), (2, 2, 1), (2, 1, 2)])
    def test_matches_sequential(self, dims, backend):
        x = tucker_plus_noise((14, 12, 10), (3, 3, 2), noise=1e-4, seed=0)
        seq, _ = sthosvd(x, ranks=(3, 3, 2))
        par = mp_sthosvd(x, dims, ranks=(3, 3, 2), transport=backend)
        assert par.ranks == seq.ranks
        assert par.relative_error(x) == pytest.approx(
            seq.relative_error(x), rel=1e-8
        )

    def test_error_specified(self):
        x = tucker_plus_noise((14, 12, 10), (3, 3, 2), noise=1e-4, seed=1)
        par = mp_sthosvd(x, (2, 1, 2), eps=0.01)
        assert par.ranks == (3, 3, 2)
        assert par.relative_error(x) <= 0.01

    def test_validation(self):
        x = np.zeros((4, 4, 4))
        with pytest.raises(ValueError):
            mp_sthosvd(x, (1, 1, 1))
        with pytest.raises(ValueError):
            mp_sthosvd(x, (1, 1), ranks=(2, 2, 2))
