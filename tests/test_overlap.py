"""Comm/compute overlap (``CommConfig.overlap``): identity and attribution.

The pipelined reduction collectives must be a pure scheduling
change: bit-identical results, identical collective traces (ops,
algorithms, message/word counters), on both transport wires.  The only
observable difference is where receive waits land — overlapped waits
move to the ``collective_wait_hidden_seconds`` histogram, which the
attribution report surfaces as hidden wait.

Failure behavior under overlap is load-bearing too: a peer that
hard-crashes mid-pipeline must surface as a prompt
:class:`~repro.vmpi.mp_comm.RankFailureError` — the prefetch helper
must neither deadlock on its one-in-flight slot nor leak it across
the abort.
"""

import glob
import time

import numpy as np
import pytest

from repro.analysis.attribution import format_attribution_report
from repro.observability.profile import RunProfile
from repro.vmpi.faults import FaultPlan
from repro.vmpi.mp_comm import (
    CommConfig,
    ProcessComm,
    RankFailureError,
    run_spmd,
)

# Payload sizes chosen so the allreduce takes the long
# pairwise-rs+ring-ag path (the overlapped one) with eager_max_words
# forced low, on 3 ranks.
_N = 60_000


def _cfg(overlap: bool) -> CommConfig:
    return CommConfig(
        overlap=overlap,
        eager_max_words=1024,
        collective_timeout=60.0,
    )


def _prog_mixed(comm: ProcessComm) -> tuple:
    """One of each overlapped collective plus a serial allgather."""
    rng = np.random.default_rng(100 + comm.rank)
    a = comm.allreduce(rng.standard_normal(_N))
    m = comm.reduce_scatter(rng.standard_normal((30, 40)), axis=0)
    g = comm.allgather(m, axis=0)
    trace = [
        (r.op, r.algorithm, r.group_size, r.sent_messages, r.sent_words,
         r.recv_messages, r.recv_words)
        for r in comm.trace.records
    ]
    return a, m, g, trace


def _prog_subgroup(comm: ProcessComm) -> tuple:
    group = tuple(r for r in range(comm.size) if r != 1)
    if comm.rank == 1:
        return (None,)
    out = comm.allreduce(
        np.full(_N, float(comm.rank)), group=group
    )
    return (out,)


class TestOverlapIdentity:
    def test_bit_and_trace_identical(self, backend):
        off = run_spmd(_prog_mixed, 3, config=_cfg(False), transport=backend)
        on = run_spmd(_prog_mixed, 3, config=_cfg(True), transport=backend)
        algs = {t[0]: t[1] for t in on[0][3]}
        # the long allreduce path — the one that pipelines — ran
        assert algs["allreduce"] == "pairwise-rs+ring-ag"
        assert algs["reduce_scatter"] == "pairwise"
        for r in range(3):
            for k in range(3):
                np.testing.assert_array_equal(off[r][k], on[r][k])
            assert off[r][3] == on[r][3]

    def test_subgroup_overlap(self, backend):
        off = run_spmd(_prog_subgroup, 3, config=_cfg(False), transport=backend)
        on = run_spmd(_prog_subgroup, 3, config=_cfg(True), transport=backend)
        for r in (0, 2):
            np.testing.assert_array_equal(off[r][0], on[r][0])

    def test_single_rank_group_unaffected(self):
        out = run_spmd(_prog_mixed, 1, config=_cfg(True))
        assert out[0][0].shape == (_N,)


class TestOverlapFailure:
    """Hard peer death during pipelined collectives (satellite of the
    elastic-recovery PR): the prefetch helper's one-in-flight slot must
    neither deadlock the surviving ranks nor leak shm segments."""

    def test_hard_crash_fails_fast(self, backend):
        cfg = CommConfig(
            overlap=True,
            eager_max_words=1024,
            collective_timeout=8.0,
            fault_plan=FaultPlan.kill(1, op_index=2),
        )
        t0 = time.monotonic()
        with pytest.raises(RankFailureError) as err:
            run_spmd(_prog_mixed, 3, config=cfg, transport=backend)
        # Well under the 8 s per-recv deadline x pipeline depth: the
        # abort must come from death detection, not timeout stacking.
        assert time.monotonic() - t0 < 30.0
        assert 1 in err.value.failed_ranks

    def test_soft_crash_mid_pipeline(self, backend):
        # Soft crash: the dying rank raises through the pipelined
        # collective while its prefetch slot is armed; its own
        # shutdown path must not hang on the in-flight receive.
        cfg = CommConfig(
            overlap=True,
            eager_max_words=1024,
            collective_timeout=8.0,
            fault_plan=FaultPlan.kill(2, op_index=1, hard=False),
        )
        t0 = time.monotonic()
        with pytest.raises(RankFailureError) as err:
            run_spmd(_prog_mixed, 3, config=cfg, transport=backend)
        assert time.monotonic() - t0 < 30.0
        assert 2 in err.value.failed_ranks

    def test_hard_crash_leaves_no_shm_residue(self):
        cfg = CommConfig(
            overlap=True,
            eager_max_words=1024,
            collective_timeout=8.0,
            fault_plan=FaultPlan.kill(0, op_index=3),
        )
        with pytest.raises(RankFailureError):
            run_spmd(_prog_mixed, 3, config=cfg, transport="shm")
        assert glob.glob("/dev/shm/mpx*") == []


class TestOverlapAttribution:
    @pytest.mark.parametrize("overlap", [False, True])
    def test_wait_moves_to_hidden_histogram(self, overlap):
        prof: dict = {}
        run_spmd(
            _prog_mixed, 3, config=_cfg(overlap), profile_out=prof,
        )
        hists = prof[0].metrics["histograms"]
        hidden = hists.get("collective_wait_hidden_seconds")
        if overlap:
            # every overlapped receive's wait is attributed as hidden
            assert hidden is not None and hidden["count"] > 0
        else:
            assert hidden is None
        # transfer accounting is overlap-independent
        assert hists["collective_transfer_seconds"]["count"] > 0

    def test_report_shows_hidden_wait(self):
        prof: dict = {}
        run_spmd(
            _prog_mixed, 3, config=_cfg(True), profile_out=prof,
        )
        profile = RunProfile.from_ranks(prof)
        report = format_attribution_report(profile)
        assert "hidden behind compute" in report
