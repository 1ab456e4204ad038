"""Distributed computational kernels with cost charging.

Each kernel (a) performs the exact global numerics when the operand is
concrete (or propagates shapes when symbolic) and (b) charges the cost
ledger the per-rank-maximum flops, memory traffic and communication of
the TuckerMPI parallel algorithm it models.  The charged quantities are
precisely the leading-order terms of the paper's Tables 1 and 2, plus
the lower-order terms (message latencies, redistributions) the paper
identifies but drops.

Ledger phase names::

    ttm / ttm_comm            TTMs (tree, direct, truncation, core)
    gram / gram_comm          Gram-matrix formation + its allreduce
    redistribute_comm         1-D relayout before a Gram (all-to-all)
    evd                       sequential symmetric eigendecomposition
    subspace / subspace_comm  Alg. 5 lines 2-3 (+ the Z reduce/bcast)
    qrcp                      sequential QR with column pivoting
    core_analysis / core_comm eq. (3) analysis + core gather

The second half of this module holds the *executed* counterparts: the
same parallel schedules run on the mini-MPI of
:mod:`repro.vmpi.mp_comm`, one block per OS process, each kernel
phase-tagging its collectives (the ``phase`` field of
:class:`~repro.vmpi.trace.CollectiveRecord`) so traced per-phase
collective counts can be certified against the closed-form schedules.
Their numerics are copied verbatim from the in-process SPMD layer
(:mod:`repro.distributed.spmd_hooi`), and the communicator reduces
in rank order, so the mp drivers are bit-identical to it.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import NumericalFaultError
from repro.distributed.arrays import (
    SymbolicArray,
    any_gram,
    any_ttm,
    is_concrete,
)
from repro.distributed.dist_tensor import DistTensor
from repro.distributed.layout import BlockLayout, column_split
from repro.linalg.evd import gram_evd, rank_from_spectrum
from repro.linalg.qrcp import qrcp
from repro.linalg.subspace import subspace_iteration_llsv
from repro.tensor.ops import contract_all_but_mode, gram, ttm
from repro.vmpi.collectives import (
    allreduce_cost,
    alltoall_cost,
    bcast_cost,
    reduce_scatter_cost,
)
from repro.vmpi.mp_comm import ProcessComm

__all__ = [
    "check_factor_orthogonality",
    "dist_ttm",
    "dist_gram",
    "dist_gram_evd_llsv",
    "dist_subspace_llsv",
    "dist_core_analysis_cost",
    "mp_ttm",
    "mp_gram",
    "mp_subspace_llsv",
    "mp_gram_evd_llsv",
    "mp_gather_core",
]


def check_factor_orthogonality(
    u: np.ndarray,
    *,
    mode: int,
    rank: int | None = None,
    tol: float = 1e-8,
    phase: str = "",
) -> float:
    """Guard rail: ``max |UᵀU − I|`` must stay below ``tol``.

    Factor columns leaving every LLSV kernel are orthonormal by
    construction; drift beyond ``tol`` means the factor was corrupted
    in flight (bit-flips, a broken reduction) and every later TTM
    would silently amplify the damage.  Raises
    :class:`~repro.core.errors.NumericalFaultError` naming the
    detecting rank, the algorithm phase, and the tensor mode; returns
    the measured drift otherwise.
    """
    r = u.shape[1]
    gram = u.conj().T @ u
    drift = float(np.max(np.abs(gram - np.eye(r, dtype=gram.dtype))))
    if not np.isfinite(drift) or drift > tol:
        where = f"rank {rank}: " if rank is not None else ""
        raise NumericalFaultError(
            f"{where}mode-{mode} factor lost orthogonality "
            f"(drift {drift:.3e} > tol {tol:.1e}"
            + (f", phase {phase!r})" if phase else ")"),
            rank=rank,
            phase=phase,
            mode=mode,
        )
    return drift


def dist_ttm(
    dt: DistTensor,
    u: np.ndarray | SymbolicArray,
    mode: int,
    *,
    transpose: bool = True,
    phase: str = "ttm",
) -> DistTensor:
    """Parallel TTM (local GEMM + reduce-scatter over the mode comm).

    Each rank multiplies the factor rows matching its slab against its
    local block (``2 * r_out * |block|`` flops), producing a partial
    result of the full output-mode extent that is reduce-scattered over
    the ``P_j`` ranks of the mode sub-communicator — the
    ``(r^j n^{d-j} / P)(P_j - 1)`` bandwidth term of Table 2.
    """
    out_rows = u.shape[1] if transpose else u.shape[0]
    local = dt.layout.max_local_size()
    mode_share = dt.layout.mode_share(mode)
    partial = out_rows * (local // max(mode_share, 1))

    dt.ledger.compute(
        phase, flops=2.0 * out_rows * local, mem_words=float(local + partial)
    )
    # Resident during the step: the input block plus the pre-reduction
    # partial result (the intermediate blow-up TuckerMPI also pays).
    dt.ledger.note_memory(float(local + partial))
    p_j = dt.grid.mode_size(mode)
    words, msgs = reduce_scatter_cost(float(partial), p_j)
    dt.ledger.comm(f"{phase}_comm", words, msgs)

    return dt.like(any_ttm(dt.data, u, mode, transpose=transpose))


def dist_gram(
    dt: DistTensor, mode: int, *, phase: str = "gram"
) -> np.ndarray | SymbolicArray:
    """Parallel Gram of the mode unfolding (TuckerMPI's LLSV front end).

    Redistribute to a 1-D column layout (all-to-all over the mode comm;
    free when ``P_j = 1``), form local Grams, then allreduce the
    ``n_j x n_j`` result.
    """
    n = dt.shape[mode]
    p = dt.grid.size
    p_j = dt.grid.mode_size(mode)
    local = dt.layout.max_local_size()

    words, msgs = alltoall_cost(float(local), p_j)
    dt.ledger.comm("redistribute_comm", words, msgs)

    cols = -(-int(np.prod(dt.shape)) // n // p)  # ceil(size / n / p)
    dt.ledger.compute(
        phase,
        flops=2.0 * n * n * cols,
        mem_words=float(n * cols + n * n),
    )
    # Resident: the original block, its 1-D-relayout copy, and the
    # replicated n x n Gram.
    dt.ledger.note_memory(float(local + n * cols + n * n))
    words, msgs = allreduce_cost(float(n) * n, p)
    dt.ledger.comm(f"{phase}_comm", words, msgs)

    return any_gram(dt.data, mode)


def dist_gram_evd_llsv(
    dt: DistTensor,
    mode: int,
    *,
    rank: int | None = None,
    threshold_sq: float | None = None,
) -> tuple[np.ndarray | SymbolicArray, np.ndarray | None]:
    """LLSV via parallel Gram + redundant sequential EVD.

    The EVD is charged at one core's flop rate — the sequential
    bottleneck (``O(n^3)`` in Tables 1-2) that caps STHOSVD and
    Gram-based HOOI scaling in Fig. 2.

    Returns ``(factor, squared-singular-value spectrum | None)``.
    """
    if rank is None and threshold_sq is None:
        raise ValueError("provide rank and/or threshold_sq")
    g = dist_gram(dt, mode)
    n = dt.shape[mode]
    dt.ledger.sequential(
        "evd", dt.ledger.machine.evd_flops_per_n3 * float(n) ** 3
    )
    if is_concrete(g):
        sq_vals, vecs = gram_evd(g)
        out_rank = (
            rank if rank is not None else rank_from_spectrum(sq_vals, threshold_sq)
        )
        if threshold_sq is not None and rank is not None:
            out_rank = min(rank, rank_from_spectrum(sq_vals, threshold_sq))
        return np.ascontiguousarray(vecs[:, :out_rank]), sq_vals
    if rank is None:
        raise ValueError(
            "error-specified LLSV needs concrete data (no spectrum in "
            "symbolic mode)"
        )
    return SymbolicArray((n, rank), dt.data.dtype), None


def dist_subspace_llsv(
    dt: DistTensor,
    mode: int,
    u_prev: np.ndarray | SymbolicArray,
    rank: int,
    *,
    n_iters: int = 1,
) -> np.ndarray | SymbolicArray:
    """LLSV via one (or more) parallel subspace-iteration sweeps (§3.4).

    Per sweep: a TTM forming the core unfolding ``G`` (reduce-scatter,
    ``(r^d / P)(P_j - 1)`` words), the all-but-one contraction forming
    ``Z = Y_(j) G_(j)^T`` (lower-order all-to-all + a reduce-broadcast
    of the ``n x r`` result, the ``2 n r`` term of Table 2), and a
    redundant sequential QRCP of ``Z`` — ``O(n r^2)`` flops instead of
    the EVD's ``O(n^3)``, which is why HOSI keeps scaling in Fig. 2.
    """
    n = dt.shape[mode]
    width = u_prev.shape[1]
    if rank > width:
        raise ValueError(f"rank {rank} exceeds subspace width {width}")
    p = dt.grid.size
    p_j = dt.grid.mode_size(mode)
    local = dt.layout.max_local_size()
    mode_share = dt.layout.mode_share(mode)
    machine = dt.ledger.machine

    for _ in range(n_iters):
        # Line 2: G = U^T Y_(j), a TTM in `mode`.
        partial = width * (local // max(mode_share, 1))
        dt.ledger.compute(
            "subspace",
            flops=2.0 * width * local,
            mem_words=float(local + partial),
        )
        words, msgs = reduce_scatter_cost(float(partial), p_j)
        dt.ledger.comm("subspace_comm", words, msgs)

        # Line 3: Z = Y_(j) G_(j)^T, contraction over all modes but one.
        words, msgs = alltoall_cost(float(local) / max(p_j, 1), p_j)
        dt.ledger.comm("subspace_comm", words, msgs)
        dt.ledger.compute(
            "subspace",
            flops=2.0 * width * local,
            mem_words=float(local + n * width),
        )
        # Reduce + broadcast of the n x width contraction result so every
        # rank can run the QRCP redundantly (the paper's 2nr words).
        r_words, r_msgs = bcast_cost(float(n) * width, p)
        dt.ledger.comm(
            "subspace_comm", 2.0 * r_words, 2.0 * r_msgs
        )

        # Line 4: sequential QRCP of the n x width matrix.
        dt.ledger.sequential(
            "qrcp", machine.qrcp_flops_per_mn2 * float(n) * width**2
        )

    if is_concrete(dt.data) and is_concrete(u_prev):
        return subspace_iteration_llsv(
            dt.data, mode, u_prev, rank, n_iters=n_iters
        )
    return SymbolicArray((n, rank), dt.data.dtype)


def dist_core_analysis_cost(core: DistTensor) -> None:
    """Charge the gather + sequential prefix-sum analysis of §3.2.

    The core (``r^d`` words) is gathered to one rank (``core_comm``) and
    analyzed sequentially: ``d`` cumulative-sum passes plus the storage
    grid and argmin, ~``(2d + 3) r^d`` flops (``core_analysis``).
    """
    core.gather("core_comm")
    d = core.ndim
    core.ledger.sequential(
        "core_analysis", float((2 * d + 3)) * core.size
    )


# ---------------------------------------------------------------------------
# executed kernels on the mini-MPI (one block per OS process)
# ---------------------------------------------------------------------------


class _comm_phase:
    """Tag collectives issued in this block with an algorithm phase.

    With the flight recorder on (the default) the block is also
    bracketed by a phase-category span, the one record of the phase, so
    the recorder's timeline mirrors the trace's phase attribution with
    zero extra plumbing at the call sites.  An exception leaves the
    span open, like every other span it passes through, so a failed
    rank's report names the phase it failed in."""

    def __init__(self, comm: ProcessComm, phase: str) -> None:
        self._comm = comm
        self._phase = phase
        self._prev = ""

    def __enter__(self) -> None:
        self._prev = self._comm.phase
        self._comm.phase = self._phase
        if self._comm.flight is not None:
            self._comm.flight.begin(self._phase, "phase", self._phase)

    def __exit__(self, exc_type: object, *exc: object) -> None:
        if self._comm.flight is not None and exc_type is None:
            self._comm.flight.end()
        self._comm.phase = self._prev


def mp_ttm(
    comm: ProcessComm,
    block: np.ndarray,
    layout: BlockLayout,
    coords: tuple[int, ...],
    u: np.ndarray,
    mode: int,
    *,
    phase: str = "ttm",
) -> tuple[np.ndarray, BlockLayout]:
    """Block-parallel truncating TTM (transpose direction).

    The local GEMM uses the factor rows matching this rank's slab; the
    partial result (full output-mode extent) is reduce-scattered over
    the mode sub-communicator — the same schedule :func:`dist_ttm`
    charges.  Identical numerics to
    :func:`repro.distributed.spmd.spmd_ttm`.
    """
    grid = layout.grid
    group = tuple(grid.mode_comm_ranks(mode, coords))
    a, b = layout.bounds[mode][coords[mode]]
    fr = comm.flight
    if fr is not None:
        # GEMM (r x local_n) @ (local_n x rest): local_n*rest = block.size.
        fr.metrics.inc("ttm_flops", 2.0 * u.shape[1] * block.size)
        fr.begin("ttm:gemm", "kernel", phase)
    # Contiguous row slice, transposed inside the kernel: u[a:b] is a
    # zero-copy C-contiguous view and BLAS consumes the transpose
    # natively, whereas spelling it u.T[:, a:b] hands the GEMM a
    # column-strided operand.  Same values, same bits (parity-fuzzed).
    partial = ttm(block, u[a:b], mode, transpose=True)
    if fr is not None:
        fr.end()
    with _comm_phase(comm, phase):
        out = comm.reduce_scatter(partial, axis=mode, group=group)
    new_shape = list(layout.shape)
    new_shape[mode] = u.shape[1]
    return out, BlockLayout(new_shape, grid)


def mp_gram(
    comm: ProcessComm,
    block: np.ndarray,
    layout: BlockLayout,
    coords: tuple[int, ...],
    mode: int,
    *,
    phase: str = "gram",
) -> np.ndarray:
    """Parallel Gram of the mode unfolding, replicated to every rank.

    An all-to-all inside the mode sub-communicator lays the blocks out
    in 1-D columns (:func:`~repro.distributed.layout.column_split`),
    every rank grams its column share, a global allreduce sums the
    partial Grams, and the result is symmetrized — the schedule
    :func:`dist_gram` charges, run exactly as
    :func:`repro.distributed.spmd.spmd_gram` runs it.
    """
    group = tuple(layout.grid.mode_comm_ranks(mode, coords))
    cols, axis = column_split(block, mode)
    fr = comm.flight
    with _comm_phase(comm, phase):
        share = comm.alltoall(cols, axis, mode, group=group)
        if fr is not None:
            fr.begin("gram:local", "kernel", phase)
        # Shared GEMM kernel (repro.kernels via ops.gram): the same
        # local Gram every execution layer computes, so the layers
        # stay mutually bit-identical.
        local_gram = gram(share, mode)
        if fr is not None:
            fr.end()
        g = comm.allreduce(local_gram)
    # In-place symmetrize: one internal buffer for the aliased add
    # instead of two explicit n x n temporaries.  The allreduce output
    # is freshly allocated and exactly symmetric already (a rank-order
    # sum of exactly symmetric local Grams), so this is a bitwise no-op
    # guard for the downstream eigensolver, as before.
    g += g.T
    g *= 0.5
    return g


def mp_subspace_llsv(
    comm: ProcessComm,
    block: np.ndarray,
    layout: BlockLayout,
    coords: tuple[int, ...],
    mode: int,
    u_prev: np.ndarray,
    rank: int,
    *,
    n_iters: int = 1,
    phase: str = "llsv",
) -> np.ndarray:
    """Subspace-iteration LLSV on real blocks (Alg. 5, §3.4).

    Per sweep: ``G = U^T Y`` as a block-parallel TTM, both operands
    laid out in 1-D columns by two all-to-alls inside the mode
    sub-communicator (split along the same axis,
    :func:`~repro.distributed.layout.column_split`), the nonsymmetric
    contraction ``Z = Y_(j) G_(j)^T`` over every rank's column share, a
    global allreduce of the partial ``Z``, and a replicated QRCP.
    Mirrors :func:`repro.distributed.spmd_hooi.spmd_subspace_llsv`
    operation for operation (bit-identical: the communicator reduces
    in rank order).  All collectives — including the ``G``-forming
    reduce-scatter — are tagged ``phase``, so TTM-phase traces count
    only the sweep/tree TTMs.
    """
    group = tuple(layout.grid.mode_comm_ranks(mode, coords))
    width = u_prev.shape[1]
    if rank > width:
        raise ValueError(f"rank {rank} exceeds subspace width {width}")

    y_cols, axis = column_split(block, mode)
    q = u_prev
    fr = comm.flight
    for _ in range(n_iters):
        g_block, _ = mp_ttm(
            comm, block, layout, coords, q, mode, phase=phase
        )
        g_cols, _ = column_split(g_block, mode)
        with _comm_phase(comm, phase):
            y_share = comm.alltoall(y_cols, axis, mode, group=group)
            g_share = comm.alltoall(g_cols, axis, mode, group=group)
            if fr is not None:
                fr.begin("llsv:contract", "kernel", phase)
            z_local = contract_all_but_mode(y_share, g_share, mode)
            if fr is not None:
                fr.end()
            z = comm.allreduce(z_local)
        if fr is not None:
            fr.begin("llsv:qrcp", "kernel", phase)
        q, _, _ = qrcp(z)
        if fr is not None:
            fr.end()
    return np.ascontiguousarray(q[:, :rank])


def mp_gram_evd_llsv(
    comm: ProcessComm,
    block: np.ndarray,
    layout: BlockLayout,
    coords: tuple[int, ...],
    mode: int,
    rank: int,
    *,
    phase: str = "llsv",
) -> np.ndarray:
    """Rank-specified Gram+EVD LLSV on real blocks (replicated EVD)."""
    g = mp_gram(comm, block, layout, coords, mode, phase=phase)
    fr = comm.flight
    if fr is not None:
        fr.begin("llsv:evd", "kernel", phase)
    _, vecs = gram_evd(g)
    if fr is not None:
        fr.end()
    return np.ascontiguousarray(vecs[:, :rank])


def mp_gather_core(
    comm: ProcessComm,
    block: np.ndarray,
    layout: BlockLayout,
    *,
    root: int = 0,
    phase: str = "core_comm",
) -> np.ndarray | None:
    """Gather the core blocks and assemble the full core at ``root``.

    Non-root ranks return ``None``.
    """
    grid = layout.grid
    with _comm_phase(comm, phase):
        gathered = comm.gather(block, root=root)
    if comm.rank != root:
        return None
    fr = comm.flight
    if fr is not None:
        fr.begin("core:assemble", "kernel", phase)
    core = np.empty(layout.shape, dtype=block.dtype)
    for rank_id, piece in enumerate(gathered):
        core[layout.local_slices(grid.coords(rank_id))] = piece
    if fr is not None:
        fr.end()
    return core
