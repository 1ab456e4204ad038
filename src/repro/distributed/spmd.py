"""Genuinely SPMD execution on per-rank blocks.

The cost-simulation layer (:mod:`repro.distributed.kernels`) executes
numerics globally; this module is its ground truth: the same parallel
algorithms TuckerMPI uses, run for real on *per-rank blocks* through
the executable collectives of :mod:`repro.vmpi.collectives` — every
rank holds only its slab, data moves only through collectives, and the
final answers must match the sequential algorithms bit-for-bit (up to
BLAS reduction order).  The test suite uses this layer to validate the
block layout, the collectives, and the parallel TTM/Gram algorithms at
small rank counts.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.core.tucker import TuckerTensor
from repro.distributed.layout import BlockLayout, column_split
from repro.linalg.evd import gram_evd, rank_from_spectrum
from repro.tensor.dense import tensor_norm
from repro.tensor.ops import gram, ttm
from repro.tensor.validation import check_ranks
from repro.vmpi.collectives import (
    allreduce_blocks,
    alltoall_blocks,
    reduce_scatter_blocks,
)
from repro.vmpi.grid import ProcessorGrid

__all__ = [
    "scatter_tensor",
    "gather_tensor",
    "subcomm_apply",
    "column_shares",
    "spmd_ttm",
    "spmd_gram",
    "spmd_sthosvd",
]


def scatter_tensor(
    x: np.ndarray, grid: ProcessorGrid
) -> tuple[list[np.ndarray], BlockLayout]:
    """Split a global tensor into per-rank block copies."""
    layout = BlockLayout(x.shape, grid)
    blocks = [
        np.array(x[layout.local_slices(coords)], copy=True, order="C")
        for _, coords in grid.iter_ranks()
    ]
    return blocks, layout


def gather_tensor(
    blocks: Sequence[np.ndarray],
    layout: BlockLayout,
) -> np.ndarray:
    """Reassemble the global tensor from per-rank blocks."""
    out = np.empty(layout.shape, dtype=blocks[0].dtype)
    for rank, coords in layout.grid.iter_ranks():
        out[layout.local_slices(coords)] = blocks[rank]
    return out


def subcomm_apply(
    blocks: Sequence[np.ndarray],
    grid: ProcessorGrid,
    mode: int,
    fn: Callable[[list[np.ndarray]], list[np.ndarray]],
) -> list[np.ndarray]:
    """Apply a collective independently in every mode sub-communicator.

    ``fn`` receives the blocks of one sub-communicator (in coordinate
    order along ``mode``) and returns the same number of blocks.
    """
    out: list[np.ndarray | None] = [None] * grid.size
    for rank, coords in grid.iter_ranks():
        if out[rank] is not None:
            continue
        comm_ranks = grid.mode_comm_ranks(mode, coords)
        results = fn([blocks[r] for r in comm_ranks])
        if len(results) != len(comm_ranks):
            raise ValueError("collective changed the sub-communicator size")
        for r, res in zip(comm_ranks, results):
            out[r] = res
    return out  # type: ignore[return-value]


def spmd_ttm(
    blocks: Sequence[np.ndarray],
    layout: BlockLayout,
    u: np.ndarray,
    mode: int,
    *,
    transpose: bool = True,
) -> tuple[list[np.ndarray], BlockLayout]:
    """TuckerMPI's parallel TTM on real blocks.

    Each rank multiplies the factor rows matching its mode-``mode``
    slab against its local block (a partial product over the full
    output extent), then the mode sub-communicator reduce-scatters the
    partials back into block layout.
    """
    grid = layout.grid
    op = u.T if transpose else u
    out_rows = op.shape[0]

    partials: list[np.ndarray] = []
    for rank, coords in grid.iter_ranks():
        a, b = layout.bounds[mode][coords[mode]]
        local_op = op[:, a:b]
        partials.append(ttm(blocks[rank], local_op, mode))

    reduced = subcomm_apply(
        partials,
        grid,
        mode,
        lambda bs: reduce_scatter_blocks(bs, axis=mode),
    )
    new_shape = list(layout.shape)
    new_shape[mode] = out_rows
    return reduced, BlockLayout(new_shape, grid)


def column_shares(
    blocks: Sequence[np.ndarray],
    grid: ProcessorGrid,
    mode: int,
) -> list[np.ndarray]:
    """Every rank's share of the 1-D column layout of ``mode``.

    The all-to-all of :func:`repro.distributed.kernels.mp_gram` and
    :func:`~repro.distributed.kernels.mp_subspace_llsv`, run in every
    mode sub-communicator: each member splits its block along the
    :func:`~repro.distributed.layout.column_split` axis, and member
    ``j`` concatenates every member's ``j``-th slab along ``mode``, so
    it holds full mode-``mode`` fibers for its share of the columns.
    """

    def relayout(bs: list[np.ndarray]) -> list[np.ndarray]:
        send = []
        for b in bs:
            cols, axis = column_split(b, mode)
            send.append(np.array_split(cols, len(bs), axis=axis))
        return [
            np.concatenate(row, axis=mode) for row in alltoall_blocks(send)
        ]

    return subcomm_apply(blocks, grid, mode, relayout)


def spmd_gram(
    blocks: Sequence[np.ndarray],
    layout: BlockLayout,
    mode: int,
) -> np.ndarray:
    """Parallel Gram of the mode unfolding on real blocks.

    Redistribute to the 1-D column layout (:func:`column_shares`),
    compute every rank's local Gram over its column share, and
    allreduce.  Returns the replicated ``n_j x n_j`` Gram.
    """
    shares = column_shares(blocks, layout.grid, mode)
    # Shared GEMM kernel (repro.kernels via ops.gram): the same local
    # Gram mp_gram computes, keeping the layers bit-identical.
    g = allreduce_blocks([gram(share, mode) for share in shares])[0]
    # In-place symmetrize, matching mp_gram operation for operation.
    g += g.T
    g *= 0.5
    return g


def spmd_sthosvd(
    x: np.ndarray,
    grid_dims: Sequence[int],
    *,
    ranks: Sequence[int] | None = None,
    eps: float | None = None,
) -> TuckerTensor:
    """STHOSVD executed end-to-end on per-rank blocks.

    Ground-truth SPMD version of
    :func:`repro.distributed.sthosvd.dist_sthosvd`: scatter, then per
    mode a block-parallel Gram, a replicated EVD, and a block-parallel
    TTM; the core is gathered at the end.
    """
    if ranks is None and eps is None:
        raise ValueError("spmd_sthosvd needs ranks or eps")
    if ranks is not None:
        ranks = check_ranks(x.shape, ranks)
    grid = ProcessorGrid(grid_dims)
    if grid.ndim != x.ndim:
        raise ValueError(f"{x.ndim}-way tensor needs a {x.ndim}-way grid")
    threshold_sq = (
        None if eps is None else (eps * tensor_norm(x)) ** 2 / x.ndim
    )

    blocks, layout = scatter_tensor(x, grid)
    factors: list[np.ndarray] = []
    for mode in range(x.ndim):
        g = spmd_gram(blocks, layout, mode)
        # Replicated sequential EVD: every rank computes the same
        # factor from the allreduced Gram (TuckerMPI's scheme).
        sq_vals, vecs = gram_evd(g)
        if ranks is not None:
            r = ranks[mode]
        else:
            r = rank_from_spectrum(sq_vals, threshold_sq)
        u = np.ascontiguousarray(vecs[:, :r])
        factors.append(u)
        blocks, layout = spmd_ttm(blocks, layout, u, mode, transpose=True)

    core = gather_tensor(blocks, layout)
    return TuckerTensor(core=core, factors=factors)
