"""Real process-parallel mini-MPI and process-parallel STHOSVD.

The ``TestRunSPMD`` cases take the ``backend`` fixture (conftest) and
run once per transport wire — pooled shared memory and TCP sockets —
so the core collective semantics, subgrouping, failure surfacing, and
timeout plumbing are certified on both.  ``TestTimeoutHygiene``'s shm
segment-release test stays shm-only by construction (it inspects the
pool internals)."""

import os
import time

import numpy as np
import pytest

from repro.core.sthosvd import sthosvd
from repro.distributed.mp_sthosvd import mp_sthosvd
from repro.observability.telemetry import TelemetryMonitor
from repro.tensor.random import tucker_plus_noise
from repro.vmpi.mp_comm import (
    CommConfig,
    ProcessComm,
    RankFailureError,
    run_spmd,
)

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


def _prog_raise_before_second(comm: ProcessComm) -> None:
    comm.allreduce(np.ones(2))
    if comm.rank == 1:
        raise ValueError("boom")
    comm.allreduce(np.ones(2))


def _prog_exit_while_waited(comm: ProcessComm) -> None:
    if comm.rank == 2:
        time.sleep(0.1)
        os._exit(77)
    if comm.rank == 1:
        comm.recv(2, tag=7)  # rank 2 exits instead of answering
    else:  # busy, and never talks to rank 2
        time.sleep(0.3)
        comm.recv(1, tag=7)


def _prog_exit_after_allreduce(comm: ProcessComm) -> None:
    comm.allreduce(np.ones(2))
    if comm.rank == 2:
        os._exit(77)
    comm.allreduce(np.ones(2))


#: (collective, group, root, error) calls that name a repeated or
#: out-of-range rank, or a root outside the group (of 2 ranks).
_MALFORMED = (
    ("allreduce", (0, 1, 1), 0, "malformed collective group (0, 1, 1)"),
    ("reduce_scatter", (1, 0, 1), 0, "malformed collective group (1, 0, 1)"),
    ("bcast", (0, 1, 1), 0, "malformed collective group (0, 1, 1)"),
    ("allgather", (0, 2), 0, "malformed collective group (0, 2)"),
    ("gather", (-1, 0, 1), 0, "malformed collective group (-1, 0, 1)"),
    ("barrier", (1, 1, 0), 0, "malformed collective group (1, 1, 0)"),
    ("bcast", None, 5, "bcast root 5 not in group (0, 1)"),
    ("gather", None, -1, "gather root -1 not in group (0, 1)"),
)


def _prog_malformed_groups(comm: ProcessComm) -> tuple:
    x = np.ones(4)
    calls = {
        "allreduce": lambda g, r: comm.allreduce(x, group=g),
        "reduce_scatter": lambda g, r: comm.reduce_scatter(x, group=g),
        "allgather": lambda g, r: comm.allgather(x, group=g),
        "bcast": lambda g, r: comm.bcast(x, root=r, group=g),
        "gather": lambda g, r: comm.gather(x, root=r, group=g),
        "barrier": lambda g, r: comm.barrier(group=g),
    }
    flight_seq = comm.flight.seq
    errors = []
    for op, group, root, _ in _MALFORMED:
        try:
            calls[op](group, root)
        except ValueError as exc:
            errors.append(str(exc))
        else:
            errors.append(None)
    moved = (
        comm._op_id,
        comm.flight.seq - flight_seq,
        len(comm.trace.records),
        dict(comm._vseq),
    )
    # Nothing moved on any rank, so the ranks are still in step.
    return errors, moved, float(comm.allreduce(x)[0])


def _failure(prog, size: int, backend: str):
    """Run ``prog`` expecting a failure; the error and the seconds
    ``run_spmd`` took to raise it."""
    start = time.monotonic()
    with pytest.raises(RankFailureError) as ei:
        run_spmd(prog, size, transport=backend, collective_timeout=10.0)
    return ei.value, time.monotonic() - start


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
            ({"transport": "p2p"}, r"'p2p'.*\['shm', 'tcp'\]"),
            ({"config": CommConfig(recovery="bogus")}, "recovery policy"),
            ({"config": CommConfig(recovery="shrink")}, "recovery policy"),
            ({"collective_timeout": 0}, "^collective_timeout must be"),
            (
                {"config": CommConfig(collective_timeout=-1.0)},
                "^collective_timeout must be",
            ),
            ({"timeout": 0}, "^timeout must be"),
        ],
        ids=[
            "transport",
            "recovery",
            "recovery-shrink",
            "collective_timeout",
            "config-collective_timeout",
            "timeout",
        ],
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


class TestInBandFailure:
    """A rank that raises or exits is EOF to its peers on both wires:
    they report at once with their flight rings, and the launcher
    returns as soon as every rank has reported or exited."""

    def test_raise_reports_both_rings_fast(self, backend):
        err, elapsed = _failure(_prog_raise_before_second, 2, backend)
        assert elapsed < 1.0
        assert err.failed_ranks == (1,)
        assert err.aborted_ranks == (0,)
        assert set(err.flight_records) == {0, 1}
        assert err.postmortem.verdict.startswith(
            "rank(s) [1] never reached allreduce (op #2)"
        )

    def test_exit_is_eof_to_the_waiting_peer(self, backend):
        """Rank 0 holds no copy of rank 2's socket end, so rank 2's
        exit reaches rank 1 as EOF while rank 0 is still busy."""
        err, elapsed = _failure(_prog_exit_while_waited, 3, backend)
        assert elapsed < 1.0
        assert err.failed_ranks == (2,)
        assert err.aborted_ranks == (0, 1)
        assert err.exitcodes == {2: 77}
        assert set(err.flight_records) == {0, 1}
        _, _, kind, _, _, detail = err.flight_records[1].events[-1]
        assert kind == "error"
        assert detail.startswith("TransportClosedError")

    def test_exit_after_allreduce_reports_fast(self, backend):
        err, elapsed = _failure(_prog_exit_after_allreduce, 3, backend)
        assert elapsed < 1.0
        assert err.failed_ranks == (2,)
        assert err.aborted_ranks == (0, 1)
        assert err.exitcodes == {2: 77}

    @pytest.mark.parametrize(
        "prog, size",
        [(_prog_raise_before_second, 2), (_prog_exit_while_waited, 3)],
        ids=["raise", "exit"],
    )
    def test_wires_classify_alike(self, prog, size):
        def view(err):
            return (
                err.failed_ranks,
                err.aborted_ranks,
                set(err.flight_records),
                err.postmortem.verdict,
            )

        shm, _ = _failure(prog, size, "shm")
        tcp, _ = _failure(prog, size, "tcp")
        assert view(shm) == view(tcp)


class TestMalformedGroups:
    def test_rejected_before_any_hook_moves(self, backend):
        """A group that repeats a rank or names one outside the world,
        and a bcast/gather root outside the group, raise a ValueError
        naming the group before the op counter, the flight ring or a
        verify round moves."""
        out = run_spmd(
            _prog_malformed_groups,
            2,
            transport=backend,
            config=CommConfig(verify=True, collective_timeout=3.0),
            timeout=60,
        )
        for errors, moved, total in out:
            for (op, _, _, expected), err in zip(_MALFORMED, errors):
                assert err is not None, op
                assert expected in err, op
            assert moved == (0, 0, 0, {})
            assert total == 2.0


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
