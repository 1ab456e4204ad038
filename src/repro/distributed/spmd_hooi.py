"""Genuinely SPMD HOOI: all four variants on per-rank blocks.

Extends :mod:`repro.distributed.spmd` with the HOOI-side kernels —
block-parallel subspace iteration (the nonsymmetric contraction of
§3.4: an all-to-all lays both operands out in 1-D columns inside the
mode sub-communicator, every rank forms its partial product over its
column share, then an allreduce and a replicated QRCP) — and drives the
shared dimension-tree traversal with an engine whose ``tensor`` state
is a ``(blocks, layout)`` pair.  The test suite checks every variant
against the sequential implementation.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.dimension_tree import direct_iteration, hooi_iteration_dt
from repro.core.hooi import HOOIOptions
from repro.core.tucker import TuckerTensor
from repro.distributed.layout import BlockLayout
from repro.distributed.spmd import (
    column_shares,
    gather_tensor,
    scatter_tensor,
    spmd_gram,
    spmd_ttm,
)
from repro.linalg.evd import gram_evd
from repro.linalg.qrcp import qrcp
from repro.tensor.ops import contract_all_but_mode
from repro.tensor.random import random_orthonormal
from repro.tensor.validation import check_ranks
from repro.vmpi.collectives import allreduce_blocks
from repro.vmpi.grid import ProcessorGrid

__all__ = ["spmd_subspace_llsv", "SPMDTreeEngine", "spmd_hooi"]

State = tuple[list[np.ndarray], BlockLayout]


def spmd_subspace_llsv(
    blocks: Sequence[np.ndarray],
    layout: BlockLayout,
    mode: int,
    u_prev: np.ndarray,
    rank: int,
    *,
    n_iters: int = 1,
) -> np.ndarray:
    """One (or more) subspace-iteration sweeps on real blocks (Alg. 5).

    Line 2 (``G = U^T Y``) is a block-parallel TTM; line 3
    (``Z = Y_(j) G_(j)^T``) redistributes both tensors to the 1-D
    column layout within the mode sub-communicator
    (:func:`~repro.distributed.spmd.column_shares`), forms every rank's
    partial ``n_j x width`` product over its column share, and
    allreduces; line 4 is a replicated QRCP (every rank computes the
    same factor, like TuckerMPI's EVD).
    """
    grid = layout.grid
    width = u_prev.shape[1]
    if rank > width:
        raise ValueError(f"rank {rank} exceeds subspace width {width}")

    q = u_prev
    for _ in range(n_iters):
        g_blocks, _ = spmd_ttm(blocks, layout, q, mode)
        y_shares = column_shares(blocks, grid, mode)
        g_shares = column_shares(g_blocks, grid, mode)
        z = allreduce_blocks(
            [
                contract_all_but_mode(y, g, mode)
                for y, g in zip(y_shares, g_shares)
            ]
        )[0]
        q, _, _ = qrcp(z)
    return np.ascontiguousarray(q[:, :rank])


def spmd_gram_evd_llsv(
    blocks: Sequence[np.ndarray],
    layout: BlockLayout,
    mode: int,
    rank: int,
) -> np.ndarray:
    """Rank-specified Gram+EVD LLSV on real blocks (replicated EVD)."""
    g = spmd_gram(blocks, layout, mode)
    _, vecs = gram_evd(g)
    return np.ascontiguousarray(vecs[:, :rank])


class SPMDTreeEngine:
    """Dimension-tree engine whose state is ``(blocks, layout)``."""

    def __init__(
        self,
        grid: ProcessorGrid,
        factors: list[np.ndarray],
        ranks: Sequence[int],
        *,
        subspace: bool = True,
        n_subspace_iters: int = 1,
    ) -> None:
        self.grid = grid
        self.factors = factors
        self.ranks = tuple(int(r) for r in ranks)
        self.subspace = subspace
        self.n_subspace_iters = n_subspace_iters
        self.last_mode = len(factors) - 1
        self.core_state: State | None = None

    def contract(self, state: State, modes: Sequence[int]) -> State:
        """Block-parallel multi-TTM over the listed modes, in order."""
        blocks, layout = state
        for m in modes:
            blocks, layout = spmd_ttm(blocks, layout, self.factors[m], m)
        return blocks, layout

    def update_factor(self, state: State, mode: int) -> None:
        """Block-parallel LLSV update of ``factors[mode]``."""
        blocks, layout = state
        if self.subspace:
            self.factors[mode] = spmd_subspace_llsv(
                blocks,
                layout,
                mode,
                self.factors[mode],
                self.ranks[mode],
                n_iters=self.n_subspace_iters,
            )
        else:
            self.factors[mode] = spmd_gram_evd_llsv(
                blocks, layout, mode, self.ranks[mode]
            )

    def form_core(self, state: State, mode: int) -> None:
        """Final block-parallel TTM producing the core blocks."""
        blocks, layout = state
        self.core_state = spmd_ttm(blocks, layout, self.factors[mode], mode)


def spmd_hooi(
    x: np.ndarray,
    ranks: Sequence[int],
    grid_dims: Sequence[int],
    options: HOOIOptions | None = None,
) -> TuckerTensor:
    """Rank-specified HOOI executed end-to-end on per-rank blocks.

    Ground truth for :func:`repro.distributed.hooi.dist_hooi`: supports
    all four variants through the same :class:`HOOIOptions` (dimension
    tree on/off x Gram-EVD / subspace iteration).
    """
    from repro.linalg.llsv import LLSVMethod

    options = options or HOOIOptions()
    ranks = check_ranks(x.shape, ranks)
    grid = ProcessorGrid(grid_dims)
    if grid.ndim != x.ndim:
        raise ValueError(f"{x.ndim}-way tensor needs a {x.ndim}-way grid")
    subspace = options.llsv_method is LLSVMethod.SUBSPACE

    rng = np.random.default_rng(options.seed)
    factors: list[np.ndarray] = [
        random_orthonormal(n, r, seed=rng, dtype=x.dtype)
        for n, r in zip(x.shape, ranks)
    ]
    blocks, layout = scatter_tensor(x, grid)
    core: np.ndarray | None = None

    for _ in range(options.max_iters):
        engine = SPMDTreeEngine(
            grid,
            factors,
            ranks,
            subspace=subspace,
            n_subspace_iters=options.n_subspace_iters,
        )
        if options.use_dimension_tree:
            hooi_iteration_dt((blocks, layout), engine)
        else:
            direct_iteration((blocks, layout), engine)
        factors = engine.factors
        assert engine.core_state is not None
        core = gather_tensor(*engine.core_state)

    assert core is not None
    return TuckerTensor(core=core, factors=factors)
