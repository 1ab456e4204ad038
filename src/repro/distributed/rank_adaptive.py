"""Distributed RA-HOSI-DT (paper Alg. 3 on the simulated machine).

The rank-adaptation decision is the sequential one
(:func:`repro.core.rank_adaptive.assess_iterate`); iterations run
through the distributed engine so every phase is cost-charged, the core
gather and analysis included.  Per-iteration simulated seconds are
recorded via ledger snapshots — these drive the Fig. 4/6/8 progression
plots and the Fig. 5/7/9 breakdowns.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.dimension_tree import direct_iteration, hooi_iteration_dt
from repro.core.errors import ConfigError
from repro.core.rank_adaptive import (
    IterationRecord,
    RankAdaptiveOptions,
    assess_iterate,
    expand_factor,
)
from repro.core.tucker import TuckerTensor
from repro.distributed.dist_tensor import DistTensor
from repro.distributed.hooi import DistributedTreeEngine
from repro.distributed.kernels import dist_core_analysis_cost
from repro.tensor.dense import tensor_norm
from repro.tensor.random import random_orthonormal
from repro.tensor.validation import check_ranks
from repro.vmpi.cost import CostLedger
from repro.vmpi.trace import TracingLedger
from repro.vmpi.grid import ProcessorGrid
from repro.vmpi.machine import MachineModel, perlmutter_like

__all__ = ["DistRankAdaptiveStats", "dist_rank_adaptive_hooi"]


@dataclass
class DistRankAdaptiveStats:
    """Simulated-run diagnostics for distributed RA-HOOI."""

    x_norm: float = 0.0
    history: list[IterationRecord] = field(default_factory=list)
    converged: bool = False
    first_satisfied: int | None = None
    grid_dims: tuple[int, ...] = ()
    simulated_seconds: float = 0.0
    #: per-iteration simulated seconds (parallel to ``history``)
    iteration_seconds: list[float] = field(default_factory=list)
    #: per-iteration phase->seconds deltas (parallel to ``history``)
    iteration_breakdowns: list[dict[str, float]] = field(default_factory=list)
    breakdown: dict[str, float] = field(default_factory=dict)
    ledger: CostLedger | None = None


def dist_rank_adaptive_hooi(
    x: np.ndarray,
    eps: float,
    init_ranks: Sequence[int],
    grid_dims: Sequence[int],
    *,
    machine: MachineModel | None = None,
    options: RankAdaptiveOptions | None = None,
    trace: bool = False,
) -> tuple[TuckerTensor, DistRankAdaptiveStats]:
    """Error-specified Tucker approximation on the simulated machine.

    Concrete inputs only (rank adaptation needs real core energies).
    See :class:`repro.core.rank_adaptive.RankAdaptiveOptions` for the
    algorithmic knobs.
    """
    options = options or RankAdaptiveOptions()
    if not isinstance(x, np.ndarray):
        raise ConfigError("rank adaptation requires concrete data")
    if eps <= 0 or eps >= 1:
        raise ConfigError("eps must lie in (0, 1)")
    ranks = check_ranks(x.shape, init_ranks, allow_exceed=True)

    machine = machine or perlmutter_like()
    grid = ProcessorGrid(grid_dims)
    if grid.ndim != x.ndim:
        raise ConfigError(f"{x.ndim}-way tensor needs a {x.ndim}-way grid")
    ledger = (
        TracingLedger(machine, grid.size)
        if trace
        else CostLedger(machine, grid.size)
    )
    dt = DistTensor(x, grid, ledger)
    rng = np.random.default_rng(options.seed)

    stats = DistRankAdaptiveStats(
        x_norm=tensor_norm(x), grid_dims=grid.dims, ledger=ledger
    )
    factors: list[np.ndarray] = [
        random_orthonormal(n, r, seed=rng, dtype=x.dtype)
        for n, r in zip(x.shape, ranks)
    ]
    core: np.ndarray | None = None
    result: TuckerTensor | None = None

    for it in range(1, options.max_iters + 1):
        snap = ledger.snapshot()
        engine = DistributedTreeEngine(
            factors,  # type: ignore[arg-type]
            ranks,
            llsv_method=options.llsv_method,
            n_subspace_iters=options.n_subspace_iters,
        )
        if options.use_dimension_tree:
            hooi_iteration_dt(dt, engine)
        else:
            direct_iteration(dt, engine)
        factors = engine.factors  # type: ignore[assignment]
        assert engine.core is not None
        core = engine.core.data
        assert isinstance(core, np.ndarray)

        # Core analysis runs every iteration (the error check itself is
        # performed on the gathered core); its truncation search only
        # matters when satisfied.
        dist_core_analysis_cost(engine.core)
        record, new_ranks, trunc = assess_iterate(
            core, factors, ranks, it, stats.x_norm, eps, options
        )
        record.seconds = ledger.seconds_since(snap)
        stats.iteration_seconds.append(record.seconds)
        stats.iteration_breakdowns.append(ledger.breakdown_since(snap))
        stats.history.append(record)

        if trunc is not None:
            stats.converged = True
            if stats.first_satisfied is None:
                stats.first_satisfied = it
            result = trunc
            factors, ranks = trunc.factors, trunc.ranks
            if options.stop_at_threshold:
                break
        else:
            factors = [
                expand_factor(u, r, rng) for u, r in zip(factors, new_ranks)
            ]
            ranks = new_ranks

    stats.simulated_seconds = ledger.seconds()
    stats.breakdown = ledger.breakdown()
    if result is None:
        # Budget never met within max_iters; return the last iterate.
        assert core is not None
        result = TuckerTensor(core=core, factors=list(factors))
    return result, stats
