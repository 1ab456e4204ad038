"""Executed schedules match the closed-form alpha-beta cost formulas.

Every collective algorithm the peer-to-peer ``mp_comm`` transport runs
has a closed-form per-rank ``(words, messages)`` profile in
:mod:`repro.vmpi.collectives`.  These tests run real multi-process
collectives, read back the :class:`~repro.vmpi.trace.CollectiveRecord`
message counters the transport recorded, and assert they equal the
formulas exactly — same alpha terms (message counts), same beta terms
(word counts; payload extents are chosen divisible by the group size so
no rounding slack is needed).

This is the executable certificate that the simulator's charges and the
executing layer's traffic describe the same schedules.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from repro.vmpi.collectives import (
    allgather_cost,
    allreduce_cost,
    allreduce_crossover_words,
    allreduce_short_cost,
    alltoall_cost,
    bcast_cost,
    gather_cost,
    reduce_scatter_cost,
    select_allreduce_algorithm,
)
from repro.vmpi.mp_comm import CommConfig, run_spmd

SIZES = (2, 3, 4, 8)

# Payload extents divisible by every group size in SIZES, so the
# n(p-1)/p terms of the cost formulas are integers and counter
# equality can be exact.
N_SHORT = 48  # at or below eager_max_words -> latency-optimal family
N_LONG = 4800  # above it -> bandwidth-optimal family
M_BLOCK = 24  # per-rank block extent for allgather / gather
A2A_BLOCK = (6, 24)  # per-rank all-to-all block, split along axis 1

# The eight traced operations, in program order.
OPS = (
    "allreduce-short",
    "allreduce-long",
    "reduce_scatter",
    "allgather",
    "bcast",
    "gather",
    "barrier",
    "alltoall",
)


def _ceil_log2(p: int) -> float:
    return float(math.ceil(math.log2(p)))


def _traced_program(comm):
    """Run one collective of each flavour; return the trace records."""
    comm.allreduce(np.arange(N_SHORT, dtype=np.float64) + comm.rank)
    comm.allreduce(np.arange(N_LONG, dtype=np.float64) + comm.rank)
    comm.reduce_scatter(
        np.full((N_LONG,), float(comm.rank + 1)), axis=0
    )
    comm.allgather(np.full((M_BLOCK,), float(comm.rank)), axis=0)
    payload = np.arange(N_LONG, dtype=np.float64)
    comm.bcast(payload if comm.rank == 0 else None, root=0)
    comm.gather(np.full((M_BLOCK,), float(comm.rank)), root=0)
    comm.barrier()
    comm.alltoall(np.full(A2A_BLOCK, float(comm.rank)), 1, 0)
    return comm.trace.records


@lru_cache(maxsize=None)
def _run(size: int) -> tuple:
    """Per-rank CollectiveRecord lists for one traced run."""
    config = CommConfig(
        collective_timeout=60.0,
        shm_min_bytes=1,  # every array message rides shared memory
        eager_max_words=N_SHORT,  # N_SHORT -> short, N_LONG -> long
    )
    return tuple(run_spmd(_traced_program, size, config=config))


@pytest.mark.parametrize("size", SIZES)
def test_symmetric_collectives_match_cost_formulas(size):
    """Allreduce / reduce-scatter / allgather / all-to-all / barrier
    counters equal the closed forms on every rank (these schedules are
    symmetric)."""
    for records in _run(size):
        by_op = dict(zip(OPS, records))
        assert [r.op for r in records] == [
            "allreduce",
            "allreduce",
            "reduce_scatter",
            "allgather",
            "bcast",
            "gather",
            "barrier",
            "alltoall",
        ]

        for op, n, algo, cost in (
            ("allreduce-short", N_SHORT, "bruck-gather", allreduce_short_cost),
            ("allreduce-long", N_LONG, "pairwise-rs+ring-ag", allreduce_cost),
        ):
            rec = by_op[op]
            words, msgs = cost(n, size)
            assert rec.algorithm == algo
            assert rec.group_size == size
            assert rec.sent_words == words
            assert rec.sent_messages == msgs
            assert rec.recv_words == words
            assert rec.recv_messages == msgs
            assert rec.sent_bytes == rec.sent_words * 8  # float64

        rec = by_op["reduce_scatter"]
        words, msgs = reduce_scatter_cost(N_LONG, size)
        assert rec.algorithm == "pairwise"
        assert (rec.sent_words, rec.sent_messages) == (words, msgs)
        assert (rec.recv_words, rec.recv_messages) == (words, msgs)

        rec = by_op["allgather"]
        words, msgs = allgather_cost(M_BLOCK * size, size)
        assert rec.algorithm == "ring"
        assert (rec.sent_words, rec.sent_messages) == (words, msgs)
        assert (rec.recv_words, rec.recv_messages) == (words, msgs)

        rec = by_op["alltoall"]
        words, msgs = alltoall_cost(math.prod(A2A_BLOCK), size)
        assert rec.algorithm == "pairwise"
        assert (rec.sent_words, rec.sent_messages) == (words, msgs)
        assert (rec.recv_words, rec.recv_messages) == (words, msgs)

        rec = by_op["barrier"]
        assert rec.algorithm == "dissemination"
        assert rec.sent_words == 0
        assert rec.sent_messages == _ceil_log2(size)
        assert rec.recv_messages == _ceil_log2(size)


@pytest.mark.parametrize("size", SIZES)
def test_rooted_collectives_match_cost_formulas(size):
    """Bcast / gather are rooted: certify the cost formulas against the
    root's message rounds and the per-rank receive profile."""
    ranks = _run(size)
    bcast_recs = [dict(zip(OPS, r))["bcast"] for r in ranks]
    gather_recs = [dict(zip(OPS, r))["gather"] for r in ranks]

    # Binomial bcast: the formula's beta term is the n words every
    # non-root receives exactly once; its alpha term is the root's
    # ceil(log2 p) sequential sends (the tree's critical path).
    words, msgs = bcast_cost(N_LONG, size)
    assert all(r.algorithm == "binomial" for r in bcast_recs)
    assert bcast_recs[0].sent_messages == msgs
    for rec in bcast_recs[1:]:
        assert rec.recv_words == words
        assert rec.recv_messages == 1
    assert sum(r.sent_messages for r in bcast_recs) == size - 1
    assert sum(r.recv_words for r in bcast_recs) == N_LONG * (size - 1)

    # Binomial gather: the root receives n(p-1)/p words in
    # ceil(log2 p) messages — exactly the formula's two terms.
    words, msgs = gather_cost(M_BLOCK * size, size)
    assert all(r.algorithm == "binomial" for r in gather_recs)
    assert gather_recs[0].recv_words == words
    assert gather_recs[0].recv_messages == msgs
    # Every non-root forwards its data exactly once (plus subtree).
    assert sum(r.sent_words for r in gather_recs) >= M_BLOCK * (size - 1)


@pytest.mark.parametrize("size", SIZES)
def test_array_traffic_rides_shared_memory(size):
    """With shm_min_bytes=1 every array-carrying message of the
    reduction collectives uses the zero-copy segment path."""
    for records in _run(size):
        by_op = dict(zip(OPS, records))
        for op in ("allreduce-short", "allreduce-long", "reduce_scatter"):
            rec = by_op[op]
            assert rec.shm_messages == rec.sent_messages, op
        assert by_op["barrier"].shm_messages == 0


def _selection_program(comm):
    comm.allreduce(np.zeros(64))
    comm.allreduce(np.zeros(32768))
    return [r.algorithm for r in comm.trace.records]


def test_default_threshold_drives_selection():
    """Without an eager_max_words override the executing transport
    consults the same alpha-beta crossover the cost model uses."""
    p = 4
    assert select_allreduce_algorithm(64, p) == "short"
    assert select_allreduce_algorithm(32768, p) == "long"
    assert 64 < allreduce_crossover_words(p) < 32768
    algos = run_spmd(_selection_program, p)[0]
    assert algos == ["bruck-gather", "pairwise-rs+ring-ag"]


def test_crossover_consistency():
    """select_allreduce_algorithm is the indicator of the crossover."""
    for p in (2, 3, 4, 7, 8, 16):
        n_star = allreduce_crossover_words(p)
        if math.isinf(n_star):
            assert p <= 2
            assert select_allreduce_algorithm(1e12, p) == "short"
            continue
        assert select_allreduce_algorithm(n_star * 0.5, p) == "short"
        assert select_allreduce_algorithm(n_star * 2.0, p) == "long"


def _sthosvd_gram_records(comm, *args):
    """mp_sthosvd's rank program; returns its gram-phase records."""
    from repro.distributed.mp_sthosvd import _rank_program

    _rank_program(comm, *args)
    return comm.trace.for_phase("gram")


def test_sthosvd_gram_relayout_matches_dist_gram():
    """Every mode's Gram relayout moves exactly the words the simulator
    charges for it: on a 2x2x1 grid with divisible extents, the
    executed all-to-all's trace equals ``dist_gram``'s
    ``redistribute_comm`` charge, ``alltoall_cost(local, P_j)``."""
    from repro.distributed.arrays import SymbolicArray
    from repro.distributed.dist_tensor import DistTensor
    from repro.distributed.kernels import dist_gram
    from repro.distributed.recovery import scatter_blocks
    from repro.vmpi.cost import CostLedger, PhaseCost
    from repro.vmpi.grid import ProcessorGrid
    from repro.vmpi.machine import perlmutter_like

    shape, ranks, dims = (8, 8, 6), (4, 4, 3), (2, 2, 1)
    x = np.random.default_rng(5).standard_normal(shape)
    grid = ProcessorGrid(dims)
    per_rank = run_spmd(
        _sthosvd_gram_records,
        grid.size,
        scatter_blocks(x, grid),
        dims,
        shape,
        ranks,
        None,  # threshold_sq: rank-specified
        "",  # x_digest: no checkpoint is written
        None,  # checkpoint_path
        None,  # orthogonality_tol
        None,  # resume
    )
    current = list(shape)
    for mode in range(len(shape)):
        ledger = CostLedger(perlmutter_like(), grid.size)
        dt = DistTensor(SymbolicArray(tuple(current), x.dtype), grid, ledger)
        dist_gram(dt, mode)
        # P_j = 1 charges nothing, so the phase may be absent.
        charge = ledger.phases.get("redistribute_comm", PhaseCost())
        p_j = grid.mode_size(mode)
        assert (charge.words, charge.messages) == alltoall_cost(
            dt.layout.max_local_size(), p_j
        )
        for records in per_rank:
            # Per mode: the relayout, then the Gram's allreduce.
            relayout = records[2 * mode]
            assert relayout.sent_words == charge.words
            assert relayout.recv_words == charge.words
            assert relayout.sent_messages == charge.messages
            assert relayout.op == "alltoall"
            assert records[2 * mode + 1].op == "allreduce"
        current[mode] = ranks[mode]
    assert all(len(records) == 2 * len(shape) for records in per_rank)
