"""Distributed HOOI variants (HOOI / HOOI-DT / HOSI / HOSI-DT).

Reuses the dimension-tree traversal of
:mod:`repro.core.dimension_tree` with a distributed engine whose
contractions and factor updates go through the cost-charging kernels.
Numerics are exact for concrete inputs and shape-only for symbolic
ones; simulated time comes from the ledger either way.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.dimension_tree import direct_iteration, hooi_iteration_dt
from repro.core.errors import ConfigError
from repro.core.hooi import HOOIOptions
from repro.core.tucker import TuckerTensor
from repro.distributed.arrays import SymbolicArray, is_concrete
from repro.distributed.dist_tensor import DistTensor
from repro.distributed.kernels import (
    dist_gram_evd_llsv,
    dist_subspace_llsv,
    dist_ttm,
)
from repro.linalg.llsv import LLSVMethod
from repro.tensor.dense import tensor_norm
from repro.tensor.random import random_orthonormal
from repro.tensor.validation import check_ranks
from repro.vmpi.cost import CostLedger
from repro.vmpi.trace import TracingLedger
from repro.vmpi.grid import ProcessorGrid
from repro.vmpi.machine import MachineModel, perlmutter_like

__all__ = ["DistHOOIStats", "DistributedTreeEngine", "dist_hooi"]


@dataclass
class DistHOOIStats:
    """Simulated-run diagnostics for distributed HOOI."""

    iterations: int = 0
    errors: list[float] = field(default_factory=list)
    grid_dims: tuple[int, ...] = ()
    simulated_seconds: float = 0.0
    breakdown: dict[str, float] = field(default_factory=dict)
    ledger: CostLedger | None = None


class DistributedTreeEngine:
    """Dimension-tree engine running on :class:`DistTensor` operands."""

    def __init__(
        self,
        factors: list[np.ndarray | SymbolicArray],
        ranks: Sequence[int],
        *,
        llsv_method: LLSVMethod = LLSVMethod.SUBSPACE,
        n_subspace_iters: int = 1,
    ) -> None:
        self.factors = factors
        self.ranks = tuple(int(r) for r in ranks)
        self.llsv_method = llsv_method
        self.n_subspace_iters = n_subspace_iters
        self.last_mode = len(factors) - 1
        self.core: DistTensor | None = None

    def contract(
        self, tensor: DistTensor, modes: Sequence[int]
    ) -> DistTensor:
        """Cost-charged multi-TTM with ``U_m^T`` per listed mode."""
        out = tensor
        for m in modes:
            out = dist_ttm(out, self.factors[m], m, transpose=True)
        return out

    def update_factor(self, tensor: DistTensor, mode: int) -> None:
        """Distributed LLSV update of ``factors[mode]``."""
        if self.llsv_method is LLSVMethod.SUBSPACE:
            self.factors[mode] = dist_subspace_llsv(
                tensor,
                mode,
                self.factors[mode],
                self.ranks[mode],
                n_iters=self.n_subspace_iters,
            )
        else:
            self.factors[mode], _ = dist_gram_evd_llsv(
                tensor, mode, rank=self.ranks[mode]
            )

    def form_core(self, tensor: DistTensor, mode: int) -> None:
        """Final cost-charged TTM producing the distributed core."""
        self.core = dist_ttm(
            tensor, self.factors[mode], mode, transpose=True
        )


def initial_dist_factors(
    x: np.ndarray | SymbolicArray,
    ranks: tuple[int, ...],
    *,
    seed: int | None = 0,
) -> list[np.ndarray | SymbolicArray]:
    """Random orthonormal factors (concrete) or symbolic placeholders."""
    if is_concrete(x):
        rng = np.random.default_rng(seed)
        return [
            random_orthonormal(n, r, seed=rng, dtype=x.dtype)
            for n, r in zip(x.shape, ranks)
        ]
    return [
        SymbolicArray((n, r), x.dtype) for n, r in zip(x.shape, ranks)
    ]


def dist_hooi(
    x: np.ndarray | SymbolicArray,
    ranks: Sequence[int],
    grid_dims: Sequence[int],
    *,
    machine: MachineModel | None = None,
    options: HOOIOptions | None = None,
    trace: bool = False,
) -> tuple[TuckerTensor | None, DistHOOIStats]:
    """Rank-specified HOOI on the simulated machine.

    Same variant knobs as the sequential :func:`repro.core.hooi.hooi`
    (via ``options``); ``grid_dims`` selects the processor grid.
    Early-stop ``tol`` is honoured only for concrete inputs (symbolic
    runs have no error signal and always execute ``max_iters``
    iterations, matching the paper's fixed two-iteration protocol).
    """
    options = options or HOOIOptions()
    ranks = check_ranks(x.shape, ranks)
    machine = machine or perlmutter_like()
    grid = ProcessorGrid(grid_dims)
    if grid.ndim != len(x.shape):
        raise ConfigError(
            f"{len(x.shape)}-way tensor needs a {len(x.shape)}-way grid"
        )
    ledger = (
        TracingLedger(machine, grid.size)
        if trace
        else CostLedger(machine, grid.size)
    )
    dt = DistTensor(x, grid, ledger)

    factors = initial_dist_factors(x, ranks, seed=options.seed)
    stats = DistHOOIStats(grid_dims=grid.dims, ledger=ledger)
    x_norm = tensor_norm(x) if is_concrete(x) else None
    core: DistTensor | None = None
    prev_err = float("inf")

    for _ in range(options.max_iters):
        engine = DistributedTreeEngine(
            factors,
            ranks,
            llsv_method=options.llsv_method,
            n_subspace_iters=options.n_subspace_iters,
        )
        if options.use_dimension_tree:
            hooi_iteration_dt(dt, engine)
        else:
            direct_iteration(dt, engine)
        factors, core = engine.factors, engine.core
        stats.iterations += 1
        assert core is not None
        if x_norm is not None:
            gap = max(x_norm**2 - tensor_norm(core.data) ** 2, 0.0)
            err = float(np.sqrt(gap)) / x_norm if x_norm else 0.0
            stats.errors.append(err)
            if options.tol is not None and prev_err - err <= options.tol:
                break
            prev_err = err

    stats.simulated_seconds = ledger.seconds()
    stats.breakdown = ledger.breakdown()
    assert core is not None
    if is_concrete(x):
        return (
            TuckerTensor(core=core.data, factors=list(factors)),  # type: ignore[arg-type]
            stats,
        )
    return None, stats
